package cli

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestKernelOutputDigests pins the exact bytes of every kernel-engine
// output surface: the bare token-ring timeline, and F1's trace (text and
// Chrome JSON), metrics, folded profile and time-series CSV. The digests
// were recorded from the goroutine-per-process kernel engine before it
// was replaced by the op-program engine; matching them proves the swap
// byte-identical — every span, instant, ledger entry and sampler window
// — not just equal in the baseline's summary metrics.
func TestKernelOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the observed F1 probe six times")
	}
	cases := []struct {
		args   string
		digest string
	}{
		{"trace -procs 3", "c4c11e2228b83ecc059f7eec59b2d6988bebbac5cbb0a65b7181b0f09505849b"},
		{"trace F1 -format=text", "1cad6b41c94c7027eab44cc2958c8eddf8e0d0d69e2c7f9483295bbd0e1477e0"},
		{"trace F1 -format=chrome", "c6ad7f482938872a432c8454cf42760e3208a37a2d8a4e621c0821c2d3d0f019"},
		{"metrics F1", "67c737eb33a6d3879c952885985fdc4eaf5c44b51a1dd6824e7491f30a9c3627"},
		{"profile F1 -format=folded", "155377375b7c6121c3b28e19900da391b7c2ff4920192fe6a9bc28c6c5e9d323"},
		{"timeseries F1 -format=csv", "c5c62f54467704a1dce9d4ee2b646c899d8329709aa65011aa40161a2fbb23ff"},
	}
	for _, c := range cases {
		t.Run(c.args, func(t *testing.T) {
			a, out, errb, _ := testApp()
			if code := a.Execute(strings.Fields(c.args)); code != 0 {
				t.Fatalf("exit = %d: %s", code, errb.String())
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != c.digest {
				t.Errorf("sha256 = %s, pinned %s (%d bytes)", got, c.digest, out.Len())
			}
		})
	}
}
