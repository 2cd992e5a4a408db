package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
)

// gate is the correctness check. Every output — an exhibit's rendered
// text, a response body — is reduced to its SHA-256 and compared with
// the value recorded for the run's seed in digests.go. For a seed with
// no recorded values the first digest seen for a name becomes the
// reference, so every later pass of the run must repeat it.
type gate struct {
	mu       sync.Mutex
	want     map[string]string
	recorded bool
}

func newGate(seed uint64) *gate {
	g := &gate{want: map[string]string{}}
	if rec, ok := recorded[seed]; ok {
		g.recorded = true
		for k, v := range rec {
			g.want[k] = v
		}
	}
	return g
}

// check compares the digest of output name with the reference.
func (g *gate) check(name, sum string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.want[name]
	switch {
	case !ok && g.recorded:
		return fmt.Errorf("no digest recorded for this seed")
	case !ok:
		g.want[name] = sum
		return nil
	case w != sum:
		return fmt.Errorf("digest %.12s, want %.12s", sum, w)
	}
	return nil
}

// reference returns the digest name must have, once known.
func (g *gate) reference(name string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.want[name]
	return w, ok
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// etagFor is the strong ETag pentiumbench serve derives from a body.
func etagFor(sum string) string { return `"sha256-` + sum + `"` }

// checkReply gates one HTTP exchange. A plain request must get a 200
// whose ETag is the SHA-256 of its body and equal to the reference; a
// revalidation (If-None-Match) must get a 304 carrying the reference
// ETag. Anything else — another status, a dropped connection — fails.
func (g *gate) checkReply(r reply) error {
	if r.err != nil {
		return fmt.Errorf("connection: %v", r.err)
	}
	if r.ifNoneMatch != "" {
		if r.status != http.StatusNotModified {
			return fmt.Errorf("status %d, want 304", r.status)
		}
		want, ok := g.reference(r.path)
		if !ok || r.etag != etagFor(want) {
			return fmt.Errorf("304 ETag %s does not match the reference", r.etag)
		}
		return nil
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d, want 200", r.status)
	}
	if r.etag != etagFor(r.sum) {
		return fmt.Errorf("ETag %s is not the SHA-256 of the body", r.etag)
	}
	return g.check(r.path, r.sum)
}
