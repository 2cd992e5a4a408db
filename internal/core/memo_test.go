package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestMemoKeyStable pins the persistent result-memo key bytes: a change
// to the key material's shape or encoding would silently turn every
// existing -memo store cold. Bump memoSchema (and these digests) only
// when stored results must be recomputed.
func TestMemoKeyStable(t *testing.T) {
	for id, want := range map[string]string{
		"T2": "c8578bbcf0156a37e4f96d474fb1e6a7e216db9687e3ef4bd18ac774d1f3ec13",
		"F3": "c98aba656513cb8a7d3edb8b1b027a574377bbf7f0caf33c9dd306e7589af763",
		"S1": "b2d6c81334d9bd1a908fa75657536ecbdd427bcc3c8e2774fd392e744a35e1fe",
	} {
		key := memoKey(DefaultConfig(), id)
		if key == nil {
			t.Fatalf("%s: no memo key", id)
		}
		sum := sha256.Sum256(key)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: memo key sha256 %s, want %s", id, got, want)
		}
	}
}
