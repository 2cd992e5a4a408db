package kernel

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// OpKind is one instruction kind of a thread program.
type OpKind int

const (
	// OpThink charges Op.D of user computation.
	OpThink OpKind = iota
	// OpSyscall charges the personality's bare system-call cost (what
	// the getpid benchmark measures, Table 2).
	OpSyscall
	// OpYield surrenders the CPU and re-enters the run queue.
	OpYield
	// OpLock acquires Op.L (spinning or blocking per the lock's kind).
	OpLock
	// OpUnlock releases Op.L.
	OpUnlock
	// OpRCURead runs an RCU read-side section of length Op.D against Op.R.
	OpRCURead
	// OpRCUSync waits out Op.R's grace period (writer-side synchronize).
	OpRCUSync
	// OpPipeWrite is one write(2) of Op.N bytes to Op.P, blocking until
	// every byte is in the pipe.
	OpPipeWrite
	// OpPipeRead reads exactly Op.N bytes from Op.P, issuing read(2)
	// calls until they arrive, as real programs loop.
	OpPipeRead
	// OpFork charges the personality's fork cost (process duplication).
	OpFork
	// OpExec charges the personality's exec cost (program image load).
	OpExec
	// OpMark stores the thread's current virtual time in *Op.At — the
	// "timing starts here" stamp of a benchmark loop. It costs nothing.
	OpMark
)

// Op is one instruction of a thread program.
type Op struct {
	Kind OpKind
	// D is the op's duration operand (OpThink, OpRCURead).
	D sim.Duration
	// L is the lock operand (OpLock, OpUnlock).
	L *Lock
	// R is the RCU domain operand (OpRCURead, OpRCUSync).
	R *RCU
	// P and N are the pipe and byte count (OpPipeWrite, OpPipeRead).
	P *Pipe
	N int
	// At receives the clock stamp of OpMark.
	At *sim.Time
}

// Program is a thread's code: Pre runs once, then Body Loops times, then
// Post once. The prologue and epilogue carry the asymmetric first and
// last laps of token-passing benchmarks (injecting the token, absorbing
// it at the end).
type Program struct {
	Pre   []Op
	Body  []Op
	Loops int
	Post  []Op
}

type threadState int

const (
	sNew threadState = iota
	sReady
	sRunning
	sBlocked
	sDone
)

// Thread is one simulated process: an op program and its progress.
type Thread struct {
	tid   int
	name  string
	state threadState
	// home is the thread's home run queue under the per-CPU layout.
	home int

	// ops is Pre, Body and Post laid end to end; the body occupies
	// [bodyStart, bodyEnd) and loops counts its laps still to run.
	ops                []Op
	pc                 int
	bodyStart, bodyEnd int
	loops              int

	// left is the byte count still to move by the pipe op at pc, and
	// insys reports that its current read(2)/write(2) has already paid
	// its system-call entry — both survive the op blocking.
	left  int
	insys bool

	// readyAt stamps when the thread last became runnable; a CPU
	// dispatching it earlier on its own clock accrues the gap as idle.
	readyAt sim.Time
	// backoff is the spinlock backoff ladder position (0 = not spinning).
	backoff sim.Duration
	// waitStart stamps when the thread began waiting for a lock.
	waitStart sim.Time

	// UserTime accumulates the thread's OpThink/OpRCURead compute time.
	UserTime sim.Duration
	// Iters counts completed body iterations.
	Iters uint64

	// track is this thread's timeline in the attached obs recorder
	// (0 when none is attached).
	track obs.TrackID
}

// TID returns the thread identifier (1-based, like PIDs).
func (t *Thread) TID() int { return t.tid }

// Name returns the thread name given at Spawn.
func (t *Thread) Name() string { return t.name }

// trackName labels a thread's timeline in trace exports.
func (t *Thread) trackName() string {
	return fmt.Sprintf("pid %d %s", t.tid, t.name)
}

// Spawn creates a thread running prog, runnable at time zero. Threads
// must be spawned before Run; process-creation cost is the program's
// own choice (OpFork/OpExec), since benchmark setup is usually outside
// the timed region.
func (m *Machine) Spawn(name string, prog Program) *Thread {
	if m.finished {
		panic("kernel: spawning on a finished machine")
	}
	if prog.Loops < 0 {
		panic("kernel: negative loop count")
	}
	body := prog.Body
	if prog.Loops == 0 {
		body = nil
	}
	ops := make([]Op, 0, len(prog.Pre)+len(body)+len(prog.Post))
	ops = append(append(append(ops, prog.Pre...), body...), prog.Post...)
	for _, op := range ops {
		if (op.Kind == OpPipeWrite || op.Kind == OpPipeRead) && op.N <= 0 {
			panic("kernel: pipe transfer of non-positive length")
		}
	}
	tid := len(m.threads) + 1
	t := &Thread{
		tid:       tid,
		name:      name,
		home:      (tid - 1) % m.ncpu,
		ops:       ops,
		bodyStart: len(prog.Pre),
		bodyEnd:   len(prog.Pre) + len(body),
		loops:     prog.Loops,
	}
	m.threads = append(m.threads, t)
	m.live++
	if m.rec != nil {
		t.track = m.rec.Track(t.trackName())
	}
	if m.observing() {
		m.trace(t.home, "spawn", t.tid, "%s", name)
	}
	m.ready(t.home, t)
	return t
}

// SpawnThread creates a thread that executes ops loops times.
func (m *Machine) SpawnThread(name string, ops []Op, loops int) *Thread {
	if loops < 1 {
		panic("kernel: thread needs at least one loop")
	}
	return m.Spawn(name, Program{Body: ops, Loops: loops})
}

// exec advances CPU c's current thread by one op, handling the body's
// lap wrap first — so a thread re-dispatched after a final yield or a
// final blocking read retires the way a process exits after being
// picked.
func (m *Machine) exec(c int, t *Thread) {
	for t.pc == t.bodyEnd && t.loops > 0 {
		t.Iters++
		t.loops--
		if t.loops > 0 {
			t.pc = t.bodyStart
		}
	}
	if t.pc == len(t.ops) {
		m.exit(c, t)
		return
	}
	op := &t.ops[t.pc]
	k := &m.os.Kernel
	switch op.Kind {
	case OpThink:
		m.advanceBusy(c, PhaseUser, op.D)
		t.UserTime += op.D
		t.pc++
	case OpSyscall:
		m.chargeSpan(c, t.track, "syscall", PhaseSyscall, k.Syscall)
		t.pc++
	case OpYield:
		t.pc++
		m.ready(c, t)
		m.endRun(c, t)
	case OpLock:
		op.L.acquire(c, t)
	case OpUnlock:
		op.L.release(c, t)
	case OpRCURead:
		op.R.read(c, t, op.D)
	case OpRCUSync:
		op.R.synchronize(c, t)
	case OpPipeWrite:
		op.P.write(c, t, op.N)
	case OpPipeRead:
		op.P.read(c, t, op.N)
	case OpFork:
		m.chargeSpan(c, t.track, "fork", PhaseProcess, k.Fork)
		t.pc++
	case OpExec:
		m.chargeSpan(c, t.track, "exec", PhaseProcess, k.Exec)
		t.pc++
	case OpMark:
		*op.At = m.now[c]
		t.pc++
	default:
		panic(fmt.Sprintf("kernel: unknown op kind %d", int(op.Kind)))
	}
}
