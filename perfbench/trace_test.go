package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedAndAdjacent(t *testing.T) {
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(30), Parent: 0}, // adjacent children:
		{Name: "b", Start: ms(30), End: ms(50), Parent: 0}, // a ends where b starts
		{Name: "a.1", Start: ms(12), End: ms(20), Parent: 1},
		{Name: "a.1.x", Start: ms(14), End: ms(15), Parent: 3},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(60), ms(12), ms(20), ms(7), ms(1)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimeOverlappingAndOutsideChildren(t *testing.T) {
	spans := []span{
		{Name: "phase", Start: ms(0), End: ms(100), Parent: -1},
		// Two concurrent requests covering 20..60 together.
		{Name: "r1", Start: ms(20), End: ms(50), Parent: 0},
		{Name: "r2", Start: ms(40), End: ms(60), Parent: 0},
		// A child that outlives its parent counts only inside it.
		{Name: "late", Start: ms(90), End: ms(120), Parent: 0},
		// An unclosed span has no self time.
		{Name: "open", Start: ms(5), End: -1, Parent: -1},
	}
	self := selfTimes(spans)
	if self[0] != ms(50) {
		t.Errorf("self(phase) = %v, want 50ms", self[0])
	}
	if self[4] != 0 {
		t.Errorf("self(open) = %v, want 0", self[4])
	}
}

func TestTracerRecordsParentAndRun(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 7)
	tr.do("child", root, 7, func() {})
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Run != 7 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	var off *tracer // the untraced mode
	if id := off.begin("x", -1, 0); id != -1 || off.end(id) != 0 {
		t.Error("nil tracer recorded a span")
	}
	off.do("x", -1, 0, func() {})
}
