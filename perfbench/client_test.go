package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestClosedLoopCountsFailures drives the closed-loop client against a
// server that answers one path with a 500 and drops the connection on
// another: both must count as failed, the good path as passed.
func TestClosedLoopCountsFailures(t *testing.T) {
	good := []byte("ok\n")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/good":
			w.Header().Set("ETag", etagFor(digest(good)))
			w.Write(good)
		case "/error":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "/drop":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}
	}))
	defer srv.Close()
	reqs := []request{{path: "/good"}, {path: "/error"}, {path: "/drop"}, {path: "/good"}}
	replies := closedLoop(srv.URL, reqs, 2, nil)
	out := newOutcome()
	g := newGate(1 << 40)
	for _, r := range replies {
		out.op(r.path, g.checkReply(r))
	}
	if out.attempted != 4 || len(out.failures) != 2 {
		t.Fatalf("attempted %d, failures %v; want 4 attempted, 2 failed", out.attempted, out.failures)
	}
	for i, r := range replies {
		if r.path != reqs[i].path || r.end.Before(r.start) {
			t.Errorf("reply %d = %s (%v..%v), out of order or untimed", i, r.path, r.start, r.end)
		}
	}
}
