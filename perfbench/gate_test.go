package main

import (
	"net/http"
	"testing"
)

func TestGateCatchesOneByteChange(t *testing.T) {
	out := []byte("T2  System Call (getpid)\n  Linux 1.2.8   2.31 µs\n")
	g := &gate{want: map[string]string{"exhibit:T2": digest(out)}, recorded: true}
	if err := g.check("exhibit:T2", digest(out)); err != nil {
		t.Fatalf("identical output failed: %v", err)
	}
	changed := append([]byte(nil), out...)
	changed[len(changed)-3] ^= 1
	if err := g.check("exhibit:T2", digest(changed)); err == nil {
		t.Error("a one-byte change passed the gate")
	}
	if err := g.check("exhibit:T9", digest(out)); err == nil {
		t.Error("an output with no recorded digest passed on a recorded seed")
	}
}

func TestGateUnrecordedSeedNeedsRepeats(t *testing.T) {
	g := newGate(1 << 40)
	if err := g.check("exhibit:F1", digest([]byte("a"))); err != nil {
		t.Fatalf("first sighting failed: %v", err)
	}
	if err := g.check("exhibit:F1", digest([]byte("a"))); err != nil {
		t.Errorf("repeat failed: %v", err)
	}
	if err := g.check("exhibit:F1", digest([]byte("b"))); err == nil {
		t.Error("a changed repeat passed")
	}
}

func TestGateRepliesAndETags(t *testing.T) {
	body := []byte("# HELP x\nx 1\n")
	other := []byte("# HELP x\nx 2\n")
	g := &gate{want: map[string]string{"/api/metrics/T2": digest(body)}, recorded: true}
	ok := reply{request: request{path: "/api/metrics/T2"}, status: 200, etag: etagFor(digest(body)), sum: digest(body)}
	if err := g.checkReply(ok); err != nil {
		t.Fatalf("good reply failed: %v", err)
	}
	cases := map[string]reply{
		"rolled ETag (self-consistent, but not the recorded one)": {request: ok.request, status: 200,
			etag: etagFor(digest(other)), sum: digest(other)},
		"ETag not the body's digest": {request: ok.request, status: 200, etag: ok.etag, sum: digest(other)},
		"server error":               {request: ok.request, status: http.StatusInternalServerError, sum: digest(body)},
		"revalidation answered 200":  {request: request{path: ok.path, ifNoneMatch: ok.etag}, status: 200, etag: ok.etag, sum: digest(body)},
		"304 with another ETag": {request: request{path: ok.path, ifNoneMatch: ok.etag}, status: 304,
			etag: etagFor(digest(other))},
	}
	for name, r := range cases {
		if err := g.checkReply(r); err == nil {
			t.Errorf("%s passed the gate", name)
		}
	}
	good304 := reply{request: request{path: ok.path, ifNoneMatch: ok.etag}, status: 304, etag: ok.etag}
	if err := g.checkReply(good304); err != nil {
		t.Errorf("good 304 failed: %v", err)
	}
}
