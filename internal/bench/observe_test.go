package bench

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// TestObservedVariantsBitIdentical is the observability layer's central
// promise at the benchmark level: attaching a recorder, or a sampler,
// never changes a measurement. Every observed entry point must return
// exactly the plain benchmark's value.
func TestObservedVariantsBitIdentical(t *testing.T) {
	plat := PaperPlatform()
	for _, p := range osprofile.Paper() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for _, o := range []Observer{{}, {Sampler: obs.NewSampler(sim.Millisecond)}} {
				if d, _ := o.Getpid(plat, p); d != Getpid(plat, p) {
					t.Errorf("Observer%+v.Getpid diverges from Getpid", o)
				}
				if d, _ := o.Ctx(plat, p, 8, CtxRing); d != Ctx(plat, p, 8, CtxRing) {
					t.Errorf("Observer%+v.Ctx diverges from Ctx", o)
				}
				if v, _ := o.BwPipe(plat, p); v != BwPipe(plat, p) {
					t.Errorf("Observer%+v.BwPipe diverges from BwPipe", o)
				}
				if d, _ := o.Crtdel(plat, p, 64<<10, 1); d != Crtdel(plat, p, 64<<10, 1) {
					t.Errorf("Observer%+v.Crtdel diverges from Crtdel", o)
				}
				if v, _ := o.BwTCP(p, 0); v != BwTCP(p, 0) {
					t.Errorf("Observer%+v.BwTCP diverges from BwTCP", o)
				}
				if v, _ := o.TTCP(p, 1024); v != TTCP(p, 1024) {
					t.Errorf("Observer%+v.TTCP diverges from TTCP", o)
				}
			}
			if d, _ := CtxObserved(plat, p, 8, CtxRing); d != Ctx(plat, p, 8, CtxRing) {
				t.Error("CtxObserved diverges from Ctx")
			}
			if r, _ := (Observer{}).MABNFS(p, ServerSunOS, DefaultMAB(), 1); r != MABNFS(p, ServerSunOS, DefaultMAB(), 1) {
				t.Error("Observer.MABNFS diverges from MABNFS")
			}
		})
	}
}

// TestObservationsCarryData sanity-checks the observability products:
// non-empty metric snapshots, positive totals, and (for clocked models)
// captured span streams.
func TestObservationsCarryData(t *testing.T) {
	plat := PaperPlatform()
	p := osprofile.FreeBSD205()
	_, o := Observer{}.Crtdel(plat, p, 64<<10, 1)
	if o.Total <= 0 {
		t.Fatal("crtdel observation has no total")
	}
	if len(o.Metrics.Counters) == 0 {
		t.Fatal("crtdel observation has no metrics")
	}
	if len(o.Process.Events) == 0 {
		t.Fatal("crtdel observation captured no spans")
	}
	if len(o.Process.Events) > TraceRingCap {
		t.Fatalf("trace exceeds ring cap: %d > %d", len(o.Process.Events), TraceRingCap)
	}
}

// The Disabled/Observed benchmark pairs measure the observability hooks'
// cost on real benchmark runs: Disabled is the plain path (hooks
// present, recorder nil — the acceptance bar is a ≤2% delta against the
// pre-instrumentation baseline), Observed the full tracing path.
// CI prints both so the overhead stays visible.

func BenchmarkCrtdelDisabled(b *testing.B) {
	plat := PaperPlatform()
	p := osprofile.FreeBSD205()
	for i := 0; i < b.N; i++ {
		Crtdel(plat, p, 64<<10, 1)
	}
}

func BenchmarkCrtdelObserved(b *testing.B) {
	plat := PaperPlatform()
	p := osprofile.FreeBSD205()
	for i := 0; i < b.N; i++ {
		Observer{}.Crtdel(plat, p, 64<<10, 1)
	}
}

func BenchmarkCtxDisabled(b *testing.B) {
	plat := PaperPlatform()
	p := osprofile.Linux128()
	for i := 0; i < b.N; i++ {
		Ctx(plat, p, 8, CtxRing)
	}
}

func BenchmarkCtxObserved(b *testing.B) {
	plat := PaperPlatform()
	p := osprofile.Linux128()
	for i := 0; i < b.N; i++ {
		CtxObserved(plat, p, 8, CtxRing)
	}
}
