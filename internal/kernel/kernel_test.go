package kernel

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

func newLinux() *Machine   { return MustMachine(osprofile.Linux128(), 1) }
func newFreeBSD() *Machine { return MustMachine(osprofile.FreeBSD205(), 1) }
func newSolaris() *Machine { return MustMachine(osprofile.Solaris24(), 1) }

// Op constructors keep the test programs short.
func write(pp *Pipe, n int) Op      { return Op{Kind: OpPipeWrite, P: pp, N: n} }
func read(pp *Pipe, n int) Op       { return Op{Kind: OpPipeRead, P: pp, N: n} }
func mark(at *sim.Time) Op          { return Op{Kind: OpMark, At: at} }
func think(d sim.Duration) Op       { return Op{Kind: OpThink, D: d} }
func once(ops ...Op) Program        { return Program{Body: ops, Loops: 1} }
func loop(n int, ops ...Op) Program { return Program{Body: ops, Loops: n} }

func TestGetpidChargesSyscall(t *testing.T) {
	m := newLinux()
	th := m.SpawnThread("getpid", []Op{{Kind: OpSyscall}}, 1000)
	m.Run()
	if th.TID() == 0 {
		t.Fatal("thread has pid 0")
	}
	want := sim.Duration(1000 * int64(m.OS().Kernel.Syscall))
	got := m.Elapsed() - m.switchOverheadForOneProc()
	if got != want {
		t.Fatalf("1000 getpids took %v, want %v (plus initial dispatch)", got, want)
	}
}

// switchOverheadForOneProc returns the cost of the single initial dispatch
// a one-process run performs.
func (m *Machine) switchOverheadForOneProc() sim.Duration {
	k := &m.OS().Kernel
	cost := k.CtxBase
	if k.Scheduler == osprofile.SchedScanAll {
		// It was the only task when dispatched.
		cost += k.CtxPerTask
	}
	return cost
}

func TestProcsRunToCompletion(t *testing.T) {
	m := newLinux()
	ran := make([]sim.Time, 5)
	for i := range ran {
		m.Spawn("worker", once(think(sim.Microsecond), mark(&ran[i])))
	}
	m.Run()
	for i, th := range m.Threads() {
		if th.state != sDone || ran[i] == 0 {
			t.Fatalf("process %d never ran to completion", i)
		}
	}
}

func TestPIDsAreUnique(t *testing.T) {
	m := newLinux()
	a := m.Spawn("a", Program{})
	b := m.Spawn("b", Program{})
	if a.TID() == b.TID() {
		t.Fatal("duplicate PIDs")
	}
	if a.Name() != "a" || b.Name() != "b" {
		t.Fatal("names not preserved")
	}
	m.Run()
}

func TestPipeTransfersData(t *testing.T) {
	m := newLinux()
	pipe := m.NewPipe()
	m.Spawn("writer", once(write(pipe, 10000)))
	reader := m.Spawn("reader", once(read(pipe, 10000)))
	m.Run()
	if reader.Iters != 1 {
		t.Fatal("reader never finished its read")
	}
	if pipe.BytesTransferred != 10000 {
		t.Fatalf("BytesTransferred = %d, want 10000", pipe.BytesTransferred)
	}
	if pipe.Buffered() != 0 {
		t.Fatalf("pipe left %d bytes buffered", pipe.Buffered())
	}
}

func TestPipeBlocksWriterAtCapacity(t *testing.T) {
	m := newLinux()
	pipe := m.NewPipe()
	capacity := pipe.Capacity()
	var wroteCap, wroteExtra, reading, readAll sim.Time
	m.Spawn("writer", once(
		write(pipe, capacity), mark(&wroteCap), // fits exactly, no block
		write(pipe, 1), mark(&wroteExtra), // must block until the reader drains
	))
	m.Spawn("reader", once(mark(&reading), read(pipe, capacity+1), mark(&readAll)))
	m.Run()
	if !(wroteCap < reading && reading < wroteExtra && reading < readAll) {
		t.Fatalf("wrote-cap %v, reading %v, wrote-extra %v, read-all %v; writer must block at capacity",
			wroteCap, reading, wroteExtra, readAll)
	}
}

func TestPipeReadBlocksUntilData(t *testing.T) {
	m := newLinux()
	m.EnableTrace(0)
	pipe := m.NewPipe()
	var got sim.Time
	m.Spawn("reader", once(read(pipe, 42), mark(&got)))
	m.Spawn("writer", once(write(pipe, 42)))
	m.Run()
	var kinds []string
	for _, e := range m.TraceEvents() {
		if e.Kind == "block" || e.Kind == "pipe-write" || e.Kind == "pipe-read" {
			kinds = append(kinds, e.Kind)
		}
	}
	if strings.Join(kinds, " ") != "block pipe-write pipe-read" {
		t.Fatalf("events %v: the reader must block until the writer delivers", kinds)
	}
	if got == 0 {
		t.Fatal("reader never returned")
	}
}

func TestTokenRingPasses(t *testing.T) {
	// A miniature ctx ring: 4 processes, 100 laps.
	m := newFreeBSD()
	const nproc, laps = 4, 100
	pipes := make([]*Pipe, nproc)
	for i := range pipes {
		pipes[i] = m.NewPipe()
	}
	for i := 0; i < nproc; i++ {
		r, w := read(pipes[i], 1), write(pipes[(i+1)%nproc], 1)
		prog := loop(laps, r, w)
		if i == 0 {
			prog = Program{Pre: []Op{w}, Body: prog.Body, Loops: laps - 1, Post: []Op{r}}
		}
		m.Spawn("ring", prog)
	}
	m.Run()
	for i, pp := range pipes {
		if pp.BytesTransferred != laps {
			t.Fatalf("pipe %d carried the token %d times, want %d", i, pp.BytesTransferred, laps)
		}
	}
	if m.Switches() == 0 {
		t.Fatal("ring ran with no context switches")
	}
}

// idleMachine spawns n threads that never run and returns the machine.
func idleMachine(mk func() *Machine, n int) *Machine {
	m := mk()
	for i := 0; i < n; i++ {
		m.Spawn("idle", once(Op{Kind: OpYield}))
	}
	return m
}

func TestLinuxSwitchCostGrowsWithProcs(t *testing.T) {
	// §5: Linux context switch time increases linearly with active
	// processes: the goodness scan examines every live task, so the pick
	// cost scales with the task count.
	costAt := func(n int) sim.Duration {
		m := idleMachine(newLinux, n)
		d, scanned, _ := m.pickCost(m.Threads()[0])
		if scanned != n {
			t.Fatalf("scan examined %d tasks, want all %d", scanned, n)
		}
		return d
	}
	c2, c20, c40 := costAt(2), costAt(20), costAt(40)
	if !(c2 < c20 && c20 < c40) {
		t.Fatalf("Linux switch cost not increasing: %v %v %v", c2, c20, c40)
	}
	// Linearity: the 20→40 increment is ~the 2→20 increment scaled.
	perTask1 := int64(c20-c2) / 18
	perTask2 := int64(c40-c20) / 20
	if perTask1 != perTask2 {
		t.Fatalf("per-task cost not constant: %v vs %v", perTask1, perTask2)
	}
}

func TestFreeBSDSwitchCostFlat(t *testing.T) {
	costAt := func(n int) sim.Duration {
		m := idleMachine(newFreeBSD, n)
		d, scanned, _ := m.pickCost(m.Threads()[0])
		if scanned != 0 {
			t.Fatalf("bitmap queues scanned %d tasks; pick must be constant-time", scanned)
		}
		return d
	}
	if costAt(2) != costAt(200) {
		t.Fatal("FreeBSD switch cost must not depend on process count (§5)")
	}
}

func TestSchedulerPickOrderFIFO(t *testing.T) {
	// All three structures preserve ready order for equal priorities, so
	// benchmark interleavings are identical across personalities.
	for _, mk := range []func() *Machine{newLinux, newFreeBSD, newSolaris} {
		m := mk()
		ran := make([]sim.Time, 4)
		for i := range ran {
			m.Spawn("w", once(mark(&ran[i])))
		}
		m.Run()
		for i := 1; i < len(ran); i++ {
			if ran[i] <= ran[i-1] {
				t.Fatalf("%v: run times %v not FIFO", m.OS(), ran)
			}
		}
	}
}

func TestSolarisTableOverflowAt32(t *testing.T) {
	// Figure 1: cycling through more than 32 processes misses the mapping
	// resource on every dispatch; at or under 32 it always hits.
	missRate := func(nproc int) float64 {
		tbl := newLRUTable(32)
		misses, total := 0, 0
		// Warm up one full cycle, then measure.
		for lap := 0; lap < 10; lap++ {
			for id := 0; id < nproc; id++ {
				hit := tbl.touch(id)
				if lap > 0 {
					total++
					if !hit {
						misses++
					}
				}
			}
		}
		return float64(misses) / float64(total)
	}
	if r := missRate(32); r != 0 {
		t.Errorf("32-process cyclic miss rate = %v, want 0", r)
	}
	if r := missRate(33); r != 1 {
		t.Errorf("33-process cyclic miss rate = %v, want 1 (LRU cyclic thrash)", r)
	}
}

func TestSolarisLIFOChainGradual(t *testing.T) {
	// Figure 1: the LIFO chain pattern degrades gradually between 32 and
	// ~64 processes because turnaround locality keeps part of the working
	// set resident.
	missRate := func(nproc int) float64 {
		tbl := newLRUTable(32)
		misses, total := 0, 0
		for lap := 0; lap < 10; lap++ {
			// 0,1,...,n-1,n-2,...,1 — one LIFO round trip.
			seq := make([]int, 0, 2*nproc)
			for i := 0; i < nproc; i++ {
				seq = append(seq, i)
			}
			for i := nproc - 2; i >= 1; i-- {
				seq = append(seq, i)
			}
			for _, id := range seq {
				hit := tbl.touch(id)
				if lap > 0 {
					total++
					if !hit {
						misses++
					}
				}
			}
		}
		return float64(misses) / float64(total)
	}
	r40, r64, r128 := missRate(40), missRate(64), missRate(128)
	if !(r40 > 0 && r40 < 1) {
		t.Errorf("LIFO chain at 40 procs should partially hit, got miss rate %v", r40)
	}
	if !(r40 < r64 || r64 < r128) {
		t.Errorf("LIFO miss rate should grow: %v %v %v", r40, r64, r128)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not panic on deadlock")
		}
	}()
	m := newLinux()
	pipe := m.NewPipe()
	m.Spawn("stuck", once(read(pipe, 1)))
	m.Run()
}

func TestChargeAccumulatesUserTime(t *testing.T) {
	m := newLinux()
	th := m.Spawn("worker", once(think(5*sim.Millisecond), think(5*sim.Millisecond)))
	m.Run()
	if th.UserTime != 10*sim.Millisecond {
		t.Fatalf("UserTime = %v, want 10ms", th.UserTime)
	}
}

func TestForkExecCosts(t *testing.T) {
	m := newSolaris()
	m.Spawn("parent", once(Op{Kind: OpFork}, Op{Kind: OpExec}))
	m.Run()
	k := m.OS().Kernel
	want := k.Fork + k.Exec
	if got := m.PhaseTime(PhaseProcess); got != want {
		t.Fatalf("fork+exec charged %v, want %v", got, want)
	}
	if m.Elapsed() < want {
		t.Fatalf("fork+exec advanced %v, want at least %v", m.Elapsed(), want)
	}
}

func TestYieldTimeslice(t *testing.T) {
	m := newFreeBSD()
	var a1, b2, a3 sim.Time
	m.Spawn("a", once(mark(&a1), Op{Kind: OpYield}, mark(&a3)))
	m.Spawn("b", once(mark(&b2)))
	m.Run()
	if !(a1 < b2 && b2 < a3) {
		t.Fatalf("a1 %v, b2 %v, a3 %v: yield must let b run between a's halves", a1, b2, a3)
	}
}

func TestPipePanicsOnBadSizes(t *testing.T) {
	m := newLinux()
	pipe := m.NewPipe()
	defer func() {
		if recover() == nil {
			t.Error("a zero-length pipe write did not panic")
		}
	}()
	m.Spawn("bad", once(write(pipe, 0)))
}

func TestDeterministicMultiProcessRun(t *testing.T) {
	run := func() sim.Duration {
		m := newSolaris()
		pipe := m.NewPipe()
		m.Spawn("w", loop(50, write(pipe, 3000)))
		m.Spawn("r", once(read(pipe, 150000)))
		return m.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("multi-process run not deterministic: %v vs %v", a, b)
	}
}

func TestTraceRecordsTimeline(t *testing.T) {
	m := newSolaris()
	m.EnableTrace(0)
	pipe := m.NewPipe()
	m.Spawn("w", once(write(pipe, 1)))
	m.Spawn("r", once(read(pipe, 1)))
	m.Run()
	events := m.TraceEvents()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[string]int{}
	var last sim.Time
	for _, e := range events {
		kinds[e.Kind]++
		if e.When < last {
			t.Fatal("trace out of time order")
		}
		last = e.When
		if e.String() == "" {
			t.Fatal("empty rendering")
		}
	}
	for _, want := range []string{"spawn", "dispatch", "pipe-write", "pipe-read", "exit"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events: %v", want, kinds)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	m := newLinux()
	m.Spawn("w", once(Op{Kind: OpSyscall}))
	m.Run()
	if len(m.TraceEvents()) != 0 {
		t.Fatal("tracing recorded events while disabled")
	}
}

func TestTraceLimitBounds(t *testing.T) {
	m := newLinux()
	m.EnableTrace(5)
	for i := 0; i < 20; i++ {
		m.Spawn("w", Program{})
	}
	m.Run()
	if got := len(m.TraceEvents()); got > 5 {
		t.Fatalf("trace kept %d events, limit 5", got)
	}
}

func TestTraceRingDropsOldest(t *testing.T) {
	m := newLinux()
	m.EnableTrace(5)
	for i := 0; i < 20; i++ {
		m.Spawn("w", Program{})
	}
	m.Run()
	events := m.TraceEvents()
	if len(events) != 5 {
		t.Fatalf("ring kept %d events, want exactly 5", len(events))
	}
	// With 20 spawns then 20 dispatch/exit pairs, the survivors must be
	// the 5 newest events: the last of them an exit, all in time order,
	// and none of the early spawn events (which happen at T+0 before any
	// dispatch cost accrues) still present once later events exist.
	var last sim.Time
	for i, e := range events {
		if e.When < last {
			t.Fatalf("ring out of time order at %d: %v", i, events)
		}
		last = e.When
	}
	if events[len(events)-1].Kind != "exit" {
		t.Errorf("newest surviving event is %q, want exit", events[len(events)-1].Kind)
	}
	for _, e := range events {
		if e.Kind == "spawn" {
			t.Errorf("oldest events (spawn) not dropped: %v", events)
		}
	}
}

func TestTraceRingDoesNotReallocate(t *testing.T) {
	m := newLinux()
	m.EnableTrace(8)
	pipe := m.NewPipe()
	m.Spawn("w", loop(200, write(pipe, 100)))
	m.Spawn("r", once(read(pipe, 20000)))
	before := cap(m.traceBuf)
	m.Run()
	if cap(m.traceBuf) != before {
		t.Fatalf("ring reallocated: cap %d -> %d", before, cap(m.traceBuf))
	}
	if len(m.TraceEvents()) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(m.TraceEvents()))
	}
}

// TestPhaseSumsEqualElapsed holds the attribution identity: every clock
// advance made through the kernel is tagged with a phase, so the ledger
// sums to exactly the elapsed virtual time.
func TestPhaseSumsEqualElapsed(t *testing.T) {
	for _, mk := range []func() *Machine{newLinux, newFreeBSD, newSolaris} {
		m := mk()
		pipe := m.NewPipe()
		m.Spawn("w", Program{
			Pre:   []Op{{Kind: OpFork}, {Kind: OpExec}, think(5 * sim.Microsecond)},
			Body:  []Op{write(pipe, 3000)},
			Loops: 20,
		})
		m.Spawn("r", once(read(pipe, 60000), Op{Kind: OpSyscall}))
		m.Run()
		var sum sim.Duration
		for ph := Phase(0); ph < NumPhases; ph++ {
			sum += m.PhaseTime(ph)
		}
		if elapsed := m.Elapsed(); sum != elapsed {
			t.Errorf("%s: phase sum %v != elapsed %v (breakdown %v)",
				m.OS().Name, sum, elapsed, m.PhaseBreakdown())
		}
		for ph := Phase(0); ph < NumPhases; ph++ {
			if (m.PhaseTime(ph) == 0) != (ph == PhaseLock) {
				t.Errorf("%s: expected every phase but lock nonzero: %v", m.OS().Name, m.PhaseBreakdown())
			}
		}
	}
}

func TestObserveRecordsSpans(t *testing.T) {
	m := newLinux()
	rec := obs.NewRecorder(m.Clock())
	m.Observe(rec)
	pipe := m.NewPipe()
	total := pipe.Capacity() * 2 // overfill so the writer blocks and gets woken
	m.Spawn("w", once(write(pipe, total)))
	m.Spawn("r", once(read(pipe, total)))
	m.Run()

	byName := map[string]int{}
	begins, ends := 0, 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.EvBegin:
			begins++
			byName[e.Name]++
		case obs.EvEnd:
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("unbalanced spans: %d begins, %d ends", begins, ends)
	}
	for _, want := range []string{"dispatch", "syscall", "copy", "wakeup", "run"} {
		if byName[want] == 0 {
			t.Errorf("no %q spans recorded: %v", want, byName)
		}
	}
	// each proc has its own track plus main + kernel
	if tracks := rec.Tracks(); len(tracks) != 4 {
		t.Errorf("tracks = %v, want main/kernel/pid1/pid2", tracks)
	}
	reg := obs.NewRegistry()
	m.FoldMetrics(reg, "kernel.")
	snap := reg.Snapshot()
	if v, ok := snap.Get("kernel.context_switches"); !ok || v != float64(m.Switches()) {
		t.Errorf("folded switches = %v %v, want %d", v, ok, m.Switches())
	}
	if _, ok := snap.Get("kernel.phase_us.lock"); ok {
		t.Error("a lock-free machine folded a lock phase")
	}
}

// TestObserveDoesNotPerturbTiming holds that attaching observability
// never changes simulated results.
func TestObserveDoesNotPerturbTiming(t *testing.T) {
	run := func(observe bool) sim.Duration {
		m := newSolaris()
		if observe {
			m.Observe(obs.NewRecorder(m.Clock()))
			m.EnableTrace(16)
		}
		pipe := m.NewPipe()
		m.Spawn("w", loop(50, write(pipe, 3000)))
		m.Spawn("r", once(read(pipe, 150000)))
		return m.Run()
	}
	if plain, observed := run(false), run(true); plain != observed {
		t.Fatalf("observability changed the result: %v vs %v", plain, observed)
	}
}

func TestRunCheckedSurfacesDeadlockError(t *testing.T) {
	m := newLinux()
	rec := obs.NewRecorder(m.Clock())
	m.Observe(rec)
	pipe := m.NewPipe()
	m.Spawn("stuck-reader", once(read(pipe, 1)))
	m.Spawn("worker", once(think(2*sim.Millisecond)))

	err := m.RunChecked()
	if err == nil {
		t.Fatal("RunChecked returned nil on a deadlocked machine")
	}
	var d *sim.DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("RunChecked returned %T, want *sim.DeadlockError", err)
	}
	if len(d.Blocked) != 1 || !strings.Contains(d.Blocked[0], "stuck-reader") {
		t.Errorf("Blocked = %v, want the stuck reader", d.Blocked)
	}
	if d.Now == 0 {
		t.Error("deadlock carries no virtual timestamp")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error line %q does not say deadlock", err)
	}
	// The run was observed, so the diagnostic dump shows each track's
	// last activity instead of leaving the user with a bare one-liner.
	if !strings.Contains(d.Dump, "last activity per track") ||
		!strings.Contains(d.Dump, "stuck-reader") {
		t.Errorf("dump missing track activity:\n%s", d.Dump)
	}
}

func TestRunCheckedCleanRunReturnsNil(t *testing.T) {
	m := newLinux()
	m.Spawn("worker", once(think(sim.Millisecond)))
	if err := m.RunChecked(); err != nil {
		t.Fatalf("RunChecked = %v on a clean run", err)
	}
}

// TestProgramPrologueEpilogue pins the program layout: Pre runs once,
// Body Loops times (not at all for zero loops), Post once, in order.
func TestProgramPrologueEpilogue(t *testing.T) {
	for _, loops := range []int{0, 1, 3} {
		m := newFreeBSD()
		var pre, post sim.Time
		th := m.Spawn("p", Program{
			Pre:   []Op{think(sim.Microsecond), mark(&pre)},
			Body:  []Op{think(10 * sim.Microsecond)},
			Loops: loops,
			Post:  []Op{mark(&post)},
		})
		m.Run()
		if th.Iters != uint64(loops) {
			t.Errorf("loops=%d: %d body iterations", loops, th.Iters)
		}
		if want := sim.Duration(1+10*loops) * sim.Microsecond; th.UserTime != want {
			t.Errorf("loops=%d: user time %v, want %v", loops, th.UserTime, want)
		}
		if got := post.Sub(pre); got != sim.Duration(10*loops)*sim.Microsecond {
			t.Errorf("loops=%d: body took %v between the marks", loops, got)
		}
	}
}

// TestSteadyStateSwitchAllocFree pins the dispatch hot path at zero
// allocations per context switch: the run queues are head-indexed rings,
// the Solaris LRU table updates in place, and the pipe wait queues reuse
// their backing arrays. A 40-process Solaris ring misses the 32-entry
// dispatch table on every switch, so the LRU eviction path is covered.
func TestSteadyStateSwitchAllocFree(t *testing.T) {
	const nproc = 40
	m := ringMachine(osprofile.Solaris24(), nproc)
	runSwitches(m, 4*nproc) // warm every queue to its steady size
	if allocs := testing.AllocsPerRun(1000, func() { runSwitches(m, 1) }); allocs != 0 {
		t.Fatalf("%v allocs per context switch, want 0", allocs)
	}
	if m.table == nil || len(m.table.order) != cap(m.table.order) {
		t.Fatal("the 40-process ring did not fill the Solaris dispatch table")
	}
}

// ringMachine builds an n-process token ring that runs for as long as it
// is stepped.
func ringMachine(p *osprofile.Profile, nproc int) *Machine {
	m := MustMachine(p, 1)
	pipes := make([]*Pipe, nproc)
	for i := range pipes {
		pipes[i] = m.NewPipe()
	}
	for i := 0; i < nproc; i++ {
		r, w := read(pipes[i], 1), write(pipes[(i+1)%nproc], 1)
		prog := loop(1<<30, r, w)
		if i == 0 {
			prog = Program{Pre: []Op{w}, Body: prog.Body, Loops: 1 << 30}
		}
		m.Spawn("ring", prog)
	}
	return m
}

// runSwitches steps m through n context switches.
func runSwitches(m *Machine, n int) {
	for target := m.switches + uint64(n); m.switches < target; {
		m.step()
	}
}

// BenchmarkCtxRingSwitch reports the host cost of one simulated context
// switch of the ctx ring — pipe read, pipe write, wakeup and dispatch —
// as ns/op and allocs/op: the engine's hot path.
func BenchmarkCtxRingSwitch(b *testing.B) {
	for _, c := range []struct {
		name  string
		p     *osprofile.Profile
		nproc int
	}{
		{"linux-n8", osprofile.Linux128(), 8},
		{"solaris-n40", osprofile.Solaris24(), 40},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := ringMachine(c.p, c.nproc)
			runSwitches(m, 4*c.nproc)
			b.ReportAllocs()
			b.ResetTimer()
			runSwitches(m, b.N)
		})
	}
}

// BenchmarkSMPLockContention times one L1-style lock point: 16 threads on
// 16 CPUs contending for one lock.
func BenchmarkSMPLockContention(b *testing.B) {
	for _, kind := range []LockKind{SpinLock, SleepLock} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := MustMachine(osprofile.Linux128(), 16)
				l := m.NewLock(kind)
				for j := 0; j < 16; j++ {
					m.SpawnThread("worker", lockWorkerOps(l, 5*sim.Microsecond+sim.Duration(j)*137, 20*sim.Microsecond), 50)
				}
				m.Run()
			}
		})
	}
}
