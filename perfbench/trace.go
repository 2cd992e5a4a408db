package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// interval relative to the tracer's start, the span that caused it
// (-1 for a root) and the run it belongs to.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Run        int
}

// tracer keeps every span in memory until the benchmark ends. A nil
// *tracer is the untraced mode: every method is a no-op, so the timed
// code is identical in both modes apart from these calls.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Run: run})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// add records a span measured elsewhere (by a concurrent client).
func (t *tracer) add(name string, parent, run int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Run: run})
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, parent, run int, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := t.begin(name, parent, run)
	f()
	return t.end(id)
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its children. Overlapping children (concurrent
// requests) count once; a child reaching outside its parent counts only
// inside it. Unclosed spans have zero self time.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			c := spans[k]
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi time.Duration
		hi = s.Start
		for _, v := range ivs {
			if v.a > hi {
				hi = v.a
			}
			if v.b > hi {
				covered += v.b - hi
				hi = v.b
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeSelfTable prints self time summed by span name, heaviest first.
func writeSelfTable(w io.Writer, spans []span, top int) {
	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	count := map[string]int{}
	for i, s := range spans {
		sum[s.Name] += self[i]
		count[s.Name]++
	}
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if sum[names[i]] != sum[names[j]] {
			return sum[names[i]] > sum[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > top {
		names = names[:top]
	}
	fmt.Fprintf(w, "# self time by span (%d spans, top %d)\n", len(spans), len(names))
	for _, n := range names {
		fmt.Fprintf(w, "#   %-36s %10.3f ms  x%d\n", n, float64(sum[n])/1e6, count[n])
	}
}
