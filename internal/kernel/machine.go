// Package kernel simulates the operating system kernel of the benchmarking
// platform: processes, the scheduler, system-call dispatch, pipes, and
// (DESIGN.md §16) multiprocessor locks.
//
// There is one engine, a conservative discrete-event simulator over
// explicit thread state machines. Every simulated process is a Thread
// running a small op program (compute, syscall, yield, pipe read/write,
// fork/exec charges, lock/unlock, RCU, clock marks) wrapped in an
// optional prologue and epilogue. The engine always steps the CPU with
// the globally minimal local clock (ties to the lowest CPU index), so
// every observation of shared state — pipe buffers, lock words, run
// queues, RCU reader marks — is causally consistent, and the whole
// simulation is a pure single-goroutine function of its inputs: no
// goroutines, no channels, bit-identical output at any host parallelism.
// A blocking op (a read on an empty pipe, a contended sleep lock) parks
// the thread with its program counter on the op, and the op resumes
// where it left off once the thread is woken and dispatched again.
//
// The scheduler implements the structural differences §5 of the paper
// explains: Linux 1.2 scans an O(n) task list on every switch (charged as
// the live-thread count, computed in O(1)), 4.4BSD picks from
// constant-time run queues, and Solaris pays a high fixed dispatch cost
// plus a 32-entry per-process mapping resource whose overflow causes the
// jump at 32 processes in Figure 1. With NCPU > 1 the run queues are one
// global FIFO or per-CPU FIFOs with deterministic work stealing,
// selected per personality.
//
// Exactness invariants: every advance of a CPU's local clock goes through
// one of three funnels (advanceBusy, advanceSpin, advanceIdle), each
// paired with exactly one ledger add, and Run pads each CPU's idle
// ledger to the machine end time — so busy[c] + idle[c] + spin[c] ==
// elapsed holds exactly per CPU. Every busy advance is tagged with a
// Phase, so on a uniprocessor the phase ledger sums to the elapsed time
// exactly, too.
package kernel

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// Phase classifies where a machine's busy time goes, mirroring the
// paper's Figure 1 decomposition of a context switch: dispatcher
// mechanics, system-call entry/exit, data copies, wakeups, process
// creation, and user computation — plus the fixed cost of lock and RCU
// operations on SMP workloads. The ledger is always on (an array add per
// charge), so `pentiumbench metrics` can attribute any kernel experiment
// without re-running it traced.
type Phase int

const (
	// PhaseDispatch is context-switch mechanics: run-queue scan or pick
	// plus the dispatch-table reload (Solaris), and cross-CPU steals.
	PhaseDispatch Phase = iota
	// PhaseSyscall is system-call entry/exit and argument validation.
	PhaseSyscall
	// PhaseCopy is user/kernel data movement (pipe copies).
	PhaseCopy
	// PhaseWakeup is waking blocked peers.
	PhaseWakeup
	// PhaseProcess is process creation work (fork, exec).
	PhaseProcess
	// PhaseUser is time the benchmark programs charge for their own
	// computation.
	PhaseUser
	// PhaseLock is the fixed cost of lock and RCU operations (spin-wait
	// time is in the per-CPU spin ledgers, not here).
	PhaseLock
	// NumPhases sizes phase-indexed arrays.
	NumPhases
)

// String names the phase for tables and metric keys.
func (ph Phase) String() string {
	switch ph {
	case PhaseDispatch:
		return "dispatch"
	case PhaseSyscall:
		return "syscall"
	case PhaseCopy:
		return "copy"
	case PhaseWakeup:
		return "wakeup"
	case PhaseProcess:
		return "process"
	case PhaseUser:
		return "user"
	case PhaseLock:
		return "lock"
	}
	return fmt.Sprintf("Phase(%d)", int(ph))
}

// Machine is one simulated computer with NCPU virtual CPUs running one
// operating system personality. It is driven from a single goroutine and
// is not safe for concurrent use.
type Machine struct {
	os   *osprofile.Profile
	ncpu int

	threads []*Thread
	live    int
	// runnable counts ready-or-running threads (the kernel.runnable
	// gauge).
	runnable int

	// Per-CPU state, indexed by CPU.
	now     []sim.Time
	busyT   []sim.Duration
	idleT   []sim.Duration
	spinT   []sim.Duration
	running []*Thread
	lastRun []int

	// Run queues: globalQ under the shared layout, cpuQ[c] per CPU under
	// osprofile.KernelCosts.PerCPUQueues.
	globalQ runQueue
	cpuQ    []runQueue
	// table is the Solaris dispatch-resource model, shared machine-wide.
	table *lruTable

	switches uint64
	steals   uint64

	// phases attributes the busy side of the per-CPU ledgers by activity.
	phases [NumPhases]sim.Duration

	locks []*Lock

	clock    sim.Clock
	elapsed  sim.Duration
	finished bool

	// tracing state (see trace.go).
	tracing    bool
	traceLimit int
	traceBuf   []TraceEvent
	traceHead  int

	// obs integration (see Observe): one kernel track per CPU.
	rec          *obs.Recorder
	kernelTracks []obs.TrackID

	// Time-series handles, nil unless SetSampler attached them.
	tsSwitch   *obs.SeriesCounter
	tsRunnable *obs.SeriesGauge
}

// NewMachine builds a machine with ncpu virtual CPUs running the given
// personality. An unknown scheduler kind (a hand-edited profile JSON) or
// a non-positive CPU count is a returned error, never a panic.
func NewMachine(os *osprofile.Profile, ncpu int) (*Machine, error) {
	if ncpu < 1 {
		return nil, fmt.Errorf("kernel: machine needs at least one CPU, got %d", ncpu)
	}
	switch os.Kernel.Scheduler {
	case osprofile.SchedScanAll, osprofile.SchedRunQueues, osprofile.SchedPreemptiveMT:
	default:
		return nil, fmt.Errorf("kernel: %s: unknown scheduler kind %d", os, int(os.Kernel.Scheduler))
	}
	m := &Machine{
		os:           os,
		ncpu:         ncpu,
		now:          make([]sim.Time, ncpu),
		busyT:        make([]sim.Duration, ncpu),
		idleT:        make([]sim.Duration, ncpu),
		spinT:        make([]sim.Duration, ncpu),
		running:      make([]*Thread, ncpu),
		lastRun:      make([]int, ncpu),
		kernelTracks: make([]obs.TrackID, ncpu),
	}
	for c := range m.lastRun {
		m.lastRun[c] = -1
	}
	if os.Kernel.PerCPUQueues {
		m.cpuQ = make([]runQueue, ncpu)
	}
	if os.Kernel.Scheduler == osprofile.SchedPreemptiveMT && os.Kernel.CtxTableSize > 0 {
		m.table = newLRUTable(os.Kernel.CtxTableSize)
	}
	return m, nil
}

// MustMachine is NewMachine for the built-in personalities, whose
// scheduler kinds are compile-time constants.
func MustMachine(os *osprofile.Profile, ncpu int) *Machine {
	m, err := NewMachine(os, ncpu)
	if err != nil {
		panic(err)
	}
	return m
}

// OS returns the machine's operating-system personality.
func (m *Machine) OS() *osprofile.Profile { return m.os }

// NCPU returns the number of virtual CPUs.
func (m *Machine) NCPU() int { return m.ncpu }

// Clock exposes the machine clock (advanced to the end time by Run) so
// an obs recorder can be constructed against it.
func (m *Machine) Clock() *sim.Clock { return &m.clock }

// Now returns the machine clock: zero before Run, the end time after.
func (m *Machine) Now() sim.Time { return m.clock.Now() }

// Elapsed returns the machine's total virtual run time (valid after Run).
func (m *Machine) Elapsed() sim.Duration { return m.elapsed }

// Switches returns the context switches performed.
func (m *Machine) Switches() uint64 { return m.switches }

// Steals returns the number of dispatches served by stealing from
// another CPU's queue.
func (m *Machine) Steals() uint64 { return m.steals }

// Ledger returns CPU c's exact time decomposition. After Run,
// busy+idle+spin == Elapsed for every CPU.
func (m *Machine) Ledger(c int) (busy, idle, spin sim.Duration) {
	return m.busyT[c], m.idleT[c], m.spinT[c]
}

// PhaseTime returns the accumulated busy time attributed to one phase.
func (m *Machine) PhaseTime(ph Phase) sim.Duration { return m.phases[ph] }

// PhaseBreakdown returns the full attribution ledger, indexed by Phase.
// On a uniprocessor the entries sum to exactly the elapsed virtual time.
func (m *Machine) PhaseBreakdown() [NumPhases]sim.Duration { return m.phases }

// Threads returns the machine's threads in spawn order.
func (m *Machine) Threads() []*Thread { return m.threads }

// FoldMetrics adds the machine's counters to a registry under the given
// name prefix ("kernel." conventionally). The lock phase is folded only
// when lock work happened, so a lock-free machine reports the paper's
// six phases.
func (m *Machine) FoldMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Counter(prefix + "context_switches").Add(float64(m.switches))
	reg.Counter(prefix + "processes").Add(float64(len(m.threads)))
	for ph := Phase(0); ph < NumPhases; ph++ {
		if ph == PhaseLock && m.phases[ph] == 0 {
			continue
		}
		reg.Counter(prefix + "phase_us." + ph.String()).Add(m.phases[ph].Microseconds())
	}
}

// SetSampler attaches a virtual-time time-series sampler: per window it
// records context switches (kernel.switches) and samples the count of
// runnable-or-running threads (kernel.runnable) at every ready/dispatch
// transition. Nil detaches; per-window kernel.switches sums equal
// Switches() exactly.
func (m *Machine) SetSampler(smp *obs.Sampler) {
	if smp == nil {
		m.tsSwitch, m.tsRunnable = nil, nil
		return
	}
	m.tsSwitch = smp.Counter("kernel.switches")
	m.tsRunnable = smp.Gauge("kernel.runnable")
}

// sampleRunnable records the runnable-or-running thread count at t.
func (m *Machine) sampleRunnable(t sim.Time) {
	m.tsRunnable.Set(t, int64(m.runnable))
}

// The three clock funnels. Every local-clock advance goes through
// exactly one of them, each paired with exactly one ledger add — the
// mechanical basis of the per-CPU exactness invariant.

func (m *Machine) advanceBusy(c int, ph Phase, d sim.Duration) {
	m.now[c] = m.now[c].Add(d)
	m.busyT[c] += d
	m.phases[ph] += d
}

func (m *Machine) advanceSpin(c int, d sim.Duration) {
	m.now[c] = m.now[c].Add(d)
	m.spinT[c] += d
}

func (m *Machine) advanceIdle(c int, d sim.Duration) {
	m.now[c] = m.now[c].Add(d)
	m.idleT[c] += d
}

// chargeSpan is advanceBusy wrapped in an obs span on the given track,
// so the Chrome trace shows the charge as a named interval. With no
// recorder attached it costs two nil checks over a plain charge.
func (m *Machine) chargeSpan(c int, track obs.TrackID, name string, ph Phase, d sim.Duration) {
	if m.rec != nil {
		m.rec.BeginAt(m.now[c], track, name)
	}
	m.advanceBusy(c, ph, d)
	if m.rec != nil {
		m.rec.EndAt(m.now[c], track, name, d.Microseconds())
	}
}

// ready makes t runnable as of CPU c's clock and queues it. Readying an
// already-ready thread is a no-op: it keeps its queue position (the
// Linux goodness age is a property of the task, not of the wakeup that
// delivered it) and is never inserted twice.
func (m *Machine) ready(c int, t *Thread) {
	switch t.state {
	case sDone:
		panic("kernel: readying an exited thread")
	case sReady:
	default:
		if t.state != sRunning {
			m.runnable++
		}
		t.state = sReady
		t.readyAt = m.now[c]
		if m.cpuQ != nil {
			m.cpuQ[t.home].push(t)
		} else {
			m.globalQ.push(t)
		}
	}
	m.sampleRunnable(m.now[c])
}

// block parks CPU c's running thread t until another thread readies it.
// The op that blocked stays at t's program counter and resumes there.
func (m *Machine) block(c int, t *Thread) {
	if m.observing() {
		m.trace(c, "block", t.tid, "%s", t.name)
	}
	t.state = sBlocked
	m.runnable--
	m.endRun(c, t)
}

// exit retires CPU c's running thread t after its program's last op.
func (m *Machine) exit(c int, t *Thread) {
	t.state = sDone
	m.live--
	m.runnable--
	if m.observing() {
		m.trace(c, "exit", t.tid, "%s", t.name)
	}
	m.endRun(c, t)
}

// endRun takes t off CPU c, closing its "run" span.
func (m *Machine) endRun(c int, t *Thread) {
	if m.rec != nil {
		m.rec.EndAt(m.now[c], t.track, "run", 0)
	}
	m.running[c] = nil
}

// runQueue is a FIFO of ready threads on a head-indexed ring buffer:
// steady-state push and pop never allocate.
type runQueue struct {
	buf  []*Thread
	head int
	n    int
}

func (q *runQueue) push(t *Thread) {
	if q.n == len(q.buf) {
		grown := make([]*Thread, 2*len(q.buf)+8)
		for i := 0; i < q.n; i++ {
			grown[i] = q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = t
	q.n++
}

// at returns the i'th queued thread (0 = head).
func (q *runQueue) at(i int) *Thread {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return q.buf[i]
}

func (q *runQueue) pop() *Thread {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return t
}

// queueHead returns the thread CPU c would dispatch next (without
// removing it): its own queue's head, or — per-CPU layout only — the
// head of the longest other queue (steal candidate, ties to the lowest
// victim index).
func (m *Machine) queueHead(c int) *Thread {
	if m.cpuQ == nil {
		if m.globalQ.n == 0 {
			return nil
		}
		return m.globalQ.at(0)
	}
	if q := &m.cpuQ[c]; q.n > 0 {
		return q.at(0)
	}
	if v := m.stealVictim(c); v >= 0 {
		return m.cpuQ[v].at(0)
	}
	return nil
}

// stealVictim picks the CPU to steal from: the longest queue, ties to
// the lowest index; -1 when every other queue is empty.
func (m *Machine) stealVictim(c int) int {
	victim := -1
	for v := range m.cpuQ {
		if v == c || m.cpuQ[v].n == 0 {
			continue
		}
		if victim < 0 || m.cpuQ[v].n > m.cpuQ[victim].n {
			victim = v
		}
	}
	return victim
}

// takeQueued removes and returns CPU c's next thread, reporting whether
// it was stolen from another CPU's queue.
func (m *Machine) takeQueued(c int) (t *Thread, stolen bool) {
	if m.cpuQ == nil {
		if m.globalQ.n == 0 {
			return nil, false
		}
		return m.globalQ.pop(), false
	}
	if q := &m.cpuQ[c]; q.n > 0 {
		return q.pop(), false
	}
	v := m.stealVictim(c)
	if v < 0 {
		return nil, false
	}
	return m.cpuQ[v].pop(), true
}

// cpuKey returns the virtual time at which CPU c can next make progress:
// its local clock while it runs a thread, or the dispatch time of the
// thread it would pull; ok is false when the CPU has nothing to do.
func (m *Machine) cpuKey(c int) (key sim.Time, ok bool) {
	if m.running[c] != nil {
		return m.now[c], true
	}
	h := m.queueHead(c)
	if h == nil {
		return 0, false
	}
	key = m.now[c]
	if h.readyAt > key {
		key = h.readyAt
	}
	return key, true
}

// nextCPU picks the CPU with the globally minimal progress time (ties to
// the lowest index) — the conservative sequencing rule that makes every
// shared-state observation causally consistent.
func (m *Machine) nextCPU() int {
	best := -1
	var bestKey sim.Time
	for c := 0; c < m.ncpu; c++ {
		key, ok := m.cpuKey(c)
		if !ok {
			continue
		}
		if best < 0 || key < bestKey {
			best, bestKey = c, key
		}
	}
	return best
}

// pickCost prices dispatching t: the personality's base switch cost, the
// Linux goodness scan over every live task, and the Solaris
// dispatch-resource reload. The resource is consulted on every pick
// (the LRU is touched even when the pick keeps the same thread running);
// the returned cost is only charged when control changes hands.
func (m *Machine) pickCost(t *Thread) (d sim.Duration, scanned int, miss bool) {
	k := &m.os.Kernel
	switch k.Scheduler {
	case osprofile.SchedScanAll:
		scanned = m.live
	case osprofile.SchedPreemptiveMT:
		miss = m.table != nil && !m.table.touch(t.tid)
	}
	d = k.CtxBase + sim.Duration(int64(k.CtxPerTask)*int64(scanned))
	if miss {
		d += k.CtxTableMiss
	}
	return d, scanned, miss
}

// dispatch pulls CPU c's next thread, accrues the idle gap up to its
// ready time, and charges the switch cost when control actually changes
// hands.
func (m *Machine) dispatch(c int) {
	t, stolen := m.takeQueued(c)
	if t.readyAt > m.now[c] {
		m.advanceIdle(c, t.readyAt.Sub(m.now[c]))
	}
	d, scanned, miss := m.pickCost(t)
	if stolen {
		m.advanceBusy(c, PhaseDispatch, m.os.Kernel.StealCost)
		m.steals++
	}
	if t.tid != m.lastRun[c] {
		m.chargeSpan(c, m.kernelTracks[c], "dispatch", PhaseDispatch, d)
		m.switches++
		m.tsSwitch.Inc(m.now[c])
		if m.observing() {
			m.trace(c, "dispatch", t.tid, "%s (cost %v, scanned %d, miss %v)",
				t.name, d, scanned, miss)
		}
	}
	m.lastRun[c] = t.tid
	m.running[c] = t
	t.state = sRunning
	m.sampleRunnable(m.now[c])
	if m.rec != nil {
		m.rec.BeginAt(m.now[c], t.track, "run")
	}
}

// step advances the simulation on the CPU with the minimal clock: a
// dispatch, or the running thread's next op. It reports false when no
// CPU has anything left to do.
func (m *Machine) step() bool {
	c := m.nextCPU()
	if c < 0 {
		return false
	}
	t := m.running[c]
	if t == nil {
		m.dispatch(c)
		return true
	}
	m.exec(c, t)
	// On a uniprocessor no other CPU can hold an earlier clock, so the
	// running thread keeps the CPU until it blocks, yields or exits —
	// exactly what re-picking the minimal CPU per op would decide.
	for m.ncpu == 1 && m.running[c] == t {
		m.exec(c, t)
	}
	return true
}

// Run executes every thread to completion and returns the machine's
// elapsed virtual time. It panics with a *sim.DeadlockError if threads
// remain blocked with nothing runnable — in a benchmark that is always a
// deadlock bug. The panic carries a diagnostic dump built from the
// attached recorder's span buffer; callers that want an error instead
// use RunChecked.
func (m *Machine) Run() sim.Duration {
	if m.finished {
		panic("kernel: machine already run")
	}
	for m.step() {
	}
	var end sim.Time
	for _, n := range m.now {
		if n > end {
			end = n
		}
	}
	m.sampleRunnable(end)
	var blocked []string
	for _, t := range m.threads {
		if t.state == sBlocked {
			blocked = append(blocked, fmt.Sprintf("%d (%s)", t.tid, t.name))
		}
	}
	if len(blocked) > 0 {
		panic(&sim.DeadlockError{Now: end, Blocked: blocked, Dump: m.deadlockDump()})
	}
	// Pad every CPU's idle ledger to the machine end time, closing the
	// per-CPU exactness identity busy+idle+spin == elapsed.
	for c := range m.now {
		if end > m.now[c] {
			m.advanceIdle(c, end.Sub(m.now[c]))
		}
	}
	m.clock.AdvanceTo(end)
	m.elapsed = end.Sub(0)
	m.finished = true
	return m.elapsed
}

// RunChecked is Run with the deadlock watchdog surfaced as an error
// instead of a panic. Other panics (internal invariant violations)
// still propagate.
func (m *Machine) RunChecked() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if dl, ok := r.(*sim.DeadlockError); ok {
				err = dl
				return
			}
			panic(r)
		}
	}()
	m.Run()
	return nil
}

// deadlockDump renders the tail of the machine's span buffer: the most
// recent events on each track, so a deadlock report shows what every
// timeline was last doing. Empty when the run is not observed.
func (m *Machine) deadlockDump() string {
	if m.rec == nil {
		return ""
	}
	events := m.rec.Events()
	if len(events) == 0 {
		return ""
	}
	const perTrack = 4
	tracks := m.rec.Tracks()
	var b strings.Builder
	fmt.Fprintf(&b, "last activity per track (%d events buffered, %d dropped):",
		len(events), m.rec.Dropped())
	for id, name := range tracks {
		var tail []obs.Event
		for _, e := range events {
			if int(e.Track) == id {
				tail = append(tail, e)
				if len(tail) > perTrack {
					tail = tail[1:]
				}
			}
		}
		if len(tail) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n  %s:", name)
		for _, e := range tail {
			fmt.Fprintf(&b, "\n    t=%v %s %s", sim.Duration(e.When).Std(), e.Kind, e.Name)
		}
	}
	return b.String()
}

// lruTable is the Solaris dispatch-resource model: a fixed-capacity LRU
// set of process identities. A dispatch whose target is absent pays a
// reload penalty. With a cyclic ring of more than 32 processes every
// dispatch misses (the steep Figure 1 rise); with a LIFO chain the
// turnaround locality lets part of the working set survive, so the rise
// past 32 is gradual until about double the capacity (Figure 1's
// Solaris-LIFO curve). The order array is allocated once at full
// capacity and updated in place, so touch never allocates.
type lruTable struct {
	order []int // most recent last
}

func newLRUTable(capacity int) *lruTable {
	return &lruTable{order: make([]int, 0, capacity)}
}

// touch looks up id, promoting it to most-recent. It reports whether the
// id was present (hit).
func (t *lruTable) touch(id int) bool {
	for i, v := range t.order {
		if v == id {
			copy(t.order[i:], t.order[i+1:])
			t.order[len(t.order)-1] = id
			return true
		}
	}
	if len(t.order) < cap(t.order) {
		t.order = append(t.order, id)
	} else {
		copy(t.order, t.order[1:])
		t.order[len(t.order)-1] = id
	}
	return false
}
