package bench

// This file holds the observed benchmark entry points: each runs the
// identical workload as its plain counterpart — same machine, same seed,
// same charges, so the returned measurement is bit-identical — with an
// obs.Recorder attached and the model's counters folded into a snapshot.

import (
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// TraceRingCap bounds every observed run's trace to the most recent
// events, the way Chrome's own tracing rings do. The benchmarks loop one
// operation tens of thousands of times, so an unbounded capture is
// hundreds of megabytes of identical iterations; the ring keeps the
// steady-state tail, which is the part worth looking at, and keeps
// exported traces Perfetto-sized. Dropping is deterministic (oldest
// first), so capped traces stay bit-identical across worker counts.
const TraceRingCap = 1 << 14

// Observation is the observability product of one observed benchmark run:
// the captured trace, the model's metric snapshot, and the run's total
// simulated time.
type Observation struct {
	// Process is the captured trace, named after the OS personality.
	Process obs.Process
	// Metrics is the model's counters and phase ledgers after the run.
	Metrics obs.Snapshot
	// Total is the run's total simulated time (the phase ledgers in
	// Metrics sum to it exactly for clocked models).
	Total sim.Duration
}

// Observer runs the observed variant of each benchmark with its optional
// instruments attached. The zero Observer traces and counts only.
type Observer struct {
	// Faults ride the charge paths of the disk, network and buffer-cache
	// models (Crtdel, BwTCP, TTCP, MABNFS) and join the snapshot under
	// "fault."; the zero value injects nothing.
	Faults fault.Injectors
	// Sampler, when non-nil, records virtual-time series from the kernel
	// scheduler (switches, runnable) and the benchmark disk (ops, busy
	// and fault time).
	Sampler *obs.Sampler
}

// CtxObserved is Observer{}.Ctx: the Figure 1 context-switch ring with
// tracing and metrics and no further instruments.
func CtxObserved(plat Platform, p *osprofile.Profile, nproc int, order CtxOrder) (sim.Duration, Observation) {
	return Observer{}.Ctx(plat, p, nproc, order)
}

// observeMachine runs one kernel benchmark body on an observed
// uniprocessor machine and snapshots it.
func (o Observer) observeMachine(p *osprofile.Profile, body func(*kernel.Machine) sim.Duration) (sim.Duration, Observation) {
	m := kernel.MustMachine(p, 1)
	rec := obs.NewRing(m.Clock(), TraceRingCap)
	m.Observe(rec)
	m.SetSampler(o.Sampler)
	d := body(m)
	reg := obs.NewRegistry()
	m.FoldMetrics(reg, "kernel.")
	return d, Observation{
		Process: rec.Capture(p.String()),
		Metrics: reg.Snapshot(),
		Total:   m.Elapsed(),
	}
}

// Getpid is the observed Getpid.
func (o Observer) Getpid(plat Platform, p *osprofile.Profile) (sim.Duration, Observation) {
	return o.observeMachine(p, getpidOn)
}

// Ctx is the observed Ctx: the Figure 1 decomposition of a context
// switch into syscall-entry, copy, wakeup and dispatch spans.
func (o Observer) Ctx(plat Platform, p *osprofile.Profile, nproc int, order CtxOrder) (sim.Duration, Observation) {
	return o.observeMachine(p, func(m *kernel.Machine) sim.Duration { return ctxOn(m, nproc, order) })
}

// BwPipe is the observed BwPipe.
func (o Observer) BwPipe(plat Platform, p *osprofile.Profile) (float64, Observation) {
	elapsed, ob := o.observeMachine(p, bwPipeOn)
	return netstack.BandwidthMbps(BwPipeTotal, elapsed), ob
}

// Crtdel is the observed Crtdel: the Figure 12 decomposition of a
// create/delete cycle into VFS, copy, allocation, metadata-sync,
// disk-read and write-back spans. Disk and cache faults ride the same
// charge paths, so the phase ledger stays exact under injection.
func (o Observer) Crtdel(plat Platform, p *osprofile.Profile, fileBytes int64, seed uint64) (sim.Duration, Observation) {
	clock, fsys := crtdelSetup(plat, p, seed)
	fsys.SetFaults(o.Faults)
	fsys.Disk().Sample(clock, o.Sampler)
	rec := obs.NewRing(clock, TraceRingCap)
	fsys.Observe(rec)
	d := crtdelOn(clock, fsys, fileBytes)
	reg := obs.NewRegistry()
	fsys.FoldMetrics(reg, "fs.")
	fsys.Disk().Stats().FoldMetrics(reg, "disk.")
	o.Faults.FoldMetrics(reg, "fault.")
	return d, Observation{
		Process: rec.Capture(p.String()),
		Metrics: reg.Snapshot(),
		Total:   clock.Now().Sub(0),
	}
}

// BwTCP is the observed BwTCP: the sliding-window walk decomposed into
// segment, ack and scheduler-switch time (plus fault time when an
// injector drops segments or delays acks — the four-term identity still
// sums to the elapsed transfer exactly).
func (o Observer) BwTCP(p *osprofile.Profile, windowOverride int) (float64, Observation) {
	c := netstack.MustTCP(p)
	c.WindowOverride = windowOverride
	c.Faults = o.Faults.Net
	rec := obs.NewRing(nil, TraceRingCap)
	elapsed, st := c.TransferObserved(BwTCPTotal, rec)
	reg := obs.NewRegistry()
	st.FoldMetrics(reg, "tcp.")
	o.Faults.FoldMetrics(reg, "fault.")
	return netstack.BandwidthMbps(BwTCPTotal, elapsed), Observation{
		Process: rec.Capture(p.String()),
		Metrics: reg.Snapshot(),
		Total:   elapsed,
	}
}

// TTCP is the observed TTCP: the transfer's time decomposed into
// per-packet processing, data copies, syscall entry, and (under
// injection) duplicate-delivery fault time. The components are
// accumulated per datagram exactly as Transfer charges them, so they
// sum to the transfer time to the nanosecond. Oversized packet sizes
// clamp to the personality's maximum datagram, as in TTCP.
func (o Observer) TTCP(p *osprofile.Profile, packetSize int) (float64, Observation) {
	u := netstack.MustUDP(p)
	u.Faults = o.Faults.Net
	if packetSize > u.MaxDatagram() {
		packetSize = u.MaxDatagram()
	}
	st := u.TransferStats(TTCPTotal, packetSize)
	total := st.Total()
	reg := obs.NewRegistry()
	reg.Counter("udp.packets").Add(float64(st.Packets))
	reg.Counter("udp.perpacket_us").Add(st.PerPacket.Microseconds())
	reg.Counter("udp.copy_us").Add(st.Copy.Microseconds())
	reg.Counter("udp.syscall_us").Add(st.Syscall.Microseconds())
	if st.FaultTime > 0 {
		reg.Counter("udp.fault_us").Add(st.FaultTime.Microseconds())
	}
	o.Faults.FoldMetrics(reg, "fault.")
	rec := obs.NewRing(nil, TraceRingCap)
	return netstack.BandwidthMbps(TTCPTotal, total), Observation{
		Process: rec.Capture(p.String()),
		Metrics: reg.Snapshot(),
		Total:   total,
	}
}

// MABNFS is the observed MABNFS: the network injector rides the mount's
// RPC path (hard-mount retry under loss), and the disk/cache injectors
// ride the server's local file system. The snapshot carries the
// per-phase times, the client's RPC counters (including retransmits when
// faults fired), the server's file system and disk counters, and the
// injector counters.
func (o Observer) MABNFS(p *osprofile.Profile, kind NFSServerKind, cfg MABConfig, seed uint64) (MABResult, Observation) {
	clock, server, mount := mabnfsSetup(p, kind, seed)
	server.SetFaults(o.Faults)
	mount.SetFaults(o.Faults.Net)
	res := MABOn(clock, mount, p, cfg)
	reg := obs.NewRegistry()
	for i, key := range mabPhaseKeys {
		reg.Counter("mab.phase_us." + key).Add(res.Phase[i].Microseconds())
	}
	mount.Stats().FoldMetrics(reg, "nfs.")
	server.FS().FoldMetrics(reg, "srv.fs.")
	server.FS().Disk().Stats().FoldMetrics(reg, "srv.disk.")
	o.Faults.FoldMetrics(reg, "fault.")
	rec := obs.NewRing(nil, TraceRingCap)
	return res, Observation{
		Process: rec.Capture(p.String()),
		Metrics: reg.Snapshot(),
		Total:   res.Total,
	}
}
