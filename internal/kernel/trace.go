package kernel

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TraceEvent is one recorded kernel event. Tracing exists to make the
// models inspectable: an annotated timeline of a token ring shows exactly
// where each personality spends its microseconds (syscall entry, copy,
// wakeup, dispatch), which is how the paper's Figure 1 decomposition is
// verified by eye.
type TraceEvent struct {
	// When is the virtual time of the event.
	When sim.Time
	// Kind is the event class: spawn, dispatch, block, wake, exit,
	// pipe-write, pipe-read.
	Kind string
	// PID is the process involved (0 for kernel-only events).
	PID int
	// Detail is a human-readable annotation.
	Detail string
}

// String formats the event as a timeline line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%12s  %-9s pid=%-3d %s",
		e.When.Sub(0).Std(), e.Kind, e.PID, e.Detail)
}

// EnableTrace starts recording kernel events into a fixed-size ring of at
// most limit entries (0 means the default 4096); once full, the oldest
// events are overwritten first. The ring's backing array is allocated
// once here, so steady-state tracing never reallocates. Tracing is off by
// default and costs nothing when off.
func (m *Machine) EnableTrace(limit int) {
	if limit <= 0 {
		limit = 4096
	}
	m.traceLimit = limit
	m.tracing = true
	m.traceBuf = make([]TraceEvent, 0, limit)
	m.traceHead = 0
}

// TraceEvents returns the recorded events in time order (for a full ring,
// the oldest surviving event leads).
func (m *Machine) TraceEvents() []TraceEvent {
	out := make([]TraceEvent, 0, len(m.traceBuf))
	out = append(out, m.traceBuf[m.traceHead:]...)
	out = append(out, m.traceBuf[:m.traceHead]...)
	return out
}

// Observe attaches an obs recorder: kernel narration becomes obs instant
// events, dispatches, wakeups, syscalls and copies become spans, and
// each thread gets its own track ("pid N name") carrying its run,
// syscall, copy and spin spans. Kernel work lands on a "kernel" track —
// one per CPU ("kernel cpuN") on a multiprocessor. Pass nil to detach.
// Threads spawned both before and after the call are covered.
func (m *Machine) Observe(rec *obs.Recorder) {
	m.rec = rec
	for c := range m.kernelTracks {
		name := "kernel"
		if m.ncpu > 1 {
			name = fmt.Sprintf("kernel cpu%d", c)
		}
		m.kernelTracks[c] = rec.Track(name)
	}
	for _, t := range m.threads {
		t.track = rec.Track(t.trackName())
	}
}

// observing reports whether any narrative sink (text trace ring or obs
// recorder) is attached. Hot call sites with formatted details must guard
// trace() with it so variadic boxing never happens when observability is
// off — that guard is what keeps the disabled path at zero allocations.
func (m *Machine) observing() bool { return m.tracing || m.rec != nil }

// trace records one narrated event, stamped with CPU c's clock, to every
// attached sink.
func (m *Machine) trace(c int, kind string, pid int, format string, args ...any) {
	if !m.observing() {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	if m.tracing {
		e := TraceEvent{When: m.now[c], Kind: kind, PID: pid, Detail: detail}
		if len(m.traceBuf) == m.traceLimit {
			m.traceBuf[m.traceHead] = e
			m.traceHead++
			if m.traceHead == m.traceLimit {
				m.traceHead = 0
			}
		} else {
			m.traceBuf = append(m.traceBuf, e)
		}
	}
	if m.rec != nil {
		m.rec.InstantAt(m.now[c], m.kernelTracks[c], kind, pid, detail)
	}
}
