package kernel

// Table-driven coverage of the three §5 dispatcher structures, pinning
// the double-enqueue guards: readying an already-runnable thread must be
// a no-op for every personality, or one thread could be picked twice
// (and the goodness scan would reset its queue age). Also pins that each
// structure's pick cost matches its documented mechanics.

import (
	"testing"

	"repro/internal/osprofile"
)

// mkSched builds a personality's machine plus n registered threads that
// are not yet queued (the goodness scan counts every live thread, so the
// threads must be visible; they never run).
func mkSched(t *testing.T, p *osprofile.Profile, n int) (*Machine, []*Thread) {
	t.Helper()
	m := MustMachine(p, 1)
	threads := make([]*Thread, n)
	for i := range threads {
		threads[i] = &Thread{tid: i + 1}
		m.threads = append(m.threads, threads[i])
		m.live++
	}
	return m, threads
}

// pick dequeues the next thread and prices it, as dispatch does.
func pick(m *Machine) (*Thread, int, bool) {
	th, _ := m.takeQueued(0)
	if th == nil {
		return nil, 0, false
	}
	th.state = sRunning
	_, scanned, miss := m.pickCost(th)
	return th, scanned, miss
}

func TestSchedulerStructures(t *testing.T) {
	cases := []struct {
		name    string
		profile *osprofile.Profile
		// scanned is the expected pick cost with three live processes:
		// the goodness loop examines every task in the system; the
		// bitmap and dispatch-queue structures examine none.
		scanned int
	}{
		{"scan-all", osprofile.Linux128(), 3},
		{"run-queues", osprofile.FreeBSD205(), 0},
		{"preemptive", osprofile.Solaris24(), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, threads := mkSched(t, c.profile, 3)

			// Empty structure: nil pick.
			if th, _, _ := pick(m); th != nil {
				t.Fatalf("empty pick = %v, want nil", th)
			}

			// Double enqueue collapses to one entry.
			m.ready(0, threads[0])
			m.ready(0, threads[0])
			got, scanned, _ := pick(m)
			if got != threads[0] {
				t.Fatalf("picked %v, want pid 1", got)
			}
			if scanned != c.scanned {
				t.Fatalf("pick scanned %d tasks, want %d", scanned, c.scanned)
			}
			if th, _, _ := pick(m); th != nil {
				t.Fatalf("double enqueue duplicated pid %d in the ready structure", th.tid)
			}

			// FIFO order for equal priorities, and a re-enqueue of an
			// already-ready thread keeps its queue position (the scan-all
			// goodness age is a property of the task, not the wakeup).
			m.ready(0, threads[1])
			m.ready(0, threads[2])
			m.ready(0, threads[1])
			if first, _, _ := pick(m); first != threads[1] {
				t.Fatalf("re-enqueue moved pid 2 from the queue head; picked %v", first)
			}
			if second, _, _ := pick(m); second != threads[2] {
				t.Fatalf("picked %v second, want pid 3", second)
			}
			if th, _, _ := pick(m); th != nil {
				t.Fatalf("phantom third entry pid %d after two enqueues", th.tid)
			}
		})
	}
}

// TestPreemptiveDispatchTable pins the Solaris table mechanics: a cold
// pick reloads the bounded dispatch resource (miss), an immediately
// repeated pick of the same thread hits.
func TestPreemptiveDispatchTable(t *testing.T) {
	p := osprofile.Solaris24()
	if p.Kernel.CtxTableSize <= 0 {
		t.Fatal("Solaris personality lost its bounded dispatch table")
	}
	m, threads := mkSched(t, p, 2)
	m.ready(0, threads[0])
	if _, _, miss := pick(m); !miss {
		t.Fatal("cold pick did not reload the dispatch table")
	}
	m.ready(0, threads[0])
	if _, _, miss := pick(m); miss {
		t.Fatal("immediately repeated pick missed the dispatch table")
	}
	// A different thread evicts nothing at size 32 but still misses cold.
	m.ready(0, threads[1])
	if _, _, miss := pick(m); !miss {
		t.Fatal("first pick of a second thread did not miss the table")
	}
}

// TestRunQueueRingWraps pins the head-indexed ring behind the run
// queues: FIFO order survives wraparound and growth.
func TestRunQueueRingWraps(t *testing.T) {
	var q runQueue
	threads := make([]*Thread, 40)
	for i := range threads {
		threads[i] = &Thread{tid: i + 1}
	}
	next := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 7; i++ { // push 7, pop 5: the ring wraps and grows
			q.push(threads[(round*7+i)%len(threads)])
		}
		for i := 0; i < 5; i++ {
			if got := q.pop(); got != threads[next%len(threads)] {
				t.Fatalf("round %d: popped pid %d, want %d", round, got.tid, next%len(threads)+1)
			}
			next++
		}
	}
	if q.n != 10 {
		t.Fatalf("%d queued, want 10", q.n)
	}
}
