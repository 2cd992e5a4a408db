// Package osprofile defines the operating-system personalities under test.
//
// A Profile gathers everything that distinguishes one UNIX from another in
// the paper's benchmarks: scheduler structure, base system-call cost, pipe
// implementation, file-system metadata policy, buffer-cache behaviour,
// network-stack costs and windowing, and NFS client/server policy. The
// mechanisms (O(n) run-queue scans, synchronous metadata writes, one-packet
// TCP windows, ...) live in the kernel, fs, netstack and nfs packages; the
// Profile supplies the parameters that select and size them.
//
// Values fall into two classes:
//
//   - Policies the paper states outright (ext2 updates metadata
//     asynchronously; Linux 1.2.8's TCP window is one packet; FreeBSD keeps
//     a separate attribute cache; Solaris pipes ride on STREAMS). These are
//     encoded as booleans, counts, and structural choices.
//
//   - Base costs the paper measures but does not decompose (the 2.31 µs
//     Linux getpid, Solaris' 140 µs bare context switch). These are
//     calibrated constants, chosen so the simulated benchmarks land near
//     the paper's Tables and Figures on the modelled hardware.
package osprofile

import "repro/internal/sim"

// MetaPolicy is a file system's metadata-update discipline (§7.2).
type MetaPolicy int

const (
	// MetaSync writes metadata synchronously on create/delete/mkdir, the
	// BSD FFS discipline that preserves consistency across crashes.
	MetaSync MetaPolicy = iota
	// MetaAsync dirties metadata in the buffer cache and lets the flusher
	// write it later — ext2fs' policy, the source of Linux's
	// order-of-magnitude small-file advantage.
	MetaAsync
	// MetaOrderedAsync defers metadata writes but orders them so the disk
	// image stays recoverable — the policy the paper's §13 anticipates in
	// FreeBSD 2.1.
	MetaOrderedAsync
)

// String names the policy.
func (p MetaPolicy) String() string {
	switch p {
	case MetaSync:
		return "synchronous"
	case MetaAsync:
		return "asynchronous"
	case MetaOrderedAsync:
		return "ordered-asynchronous"
	}
	return "unknown"
}

// SchedulerKind selects the context-switch mechanism in the kernel model.
type SchedulerKind int

const (
	// SchedScanAll models Linux 1.2's scheduler, which recomputes goodness
	// across the whole task list on every switch: O(n) in active tasks.
	SchedScanAll SchedulerKind = iota
	// SchedRunQueues models 4.4BSD's constant-time priority queues.
	SchedRunQueues
	// SchedPreemptiveMT models Solaris' fully preemptive multi-threaded
	// dispatcher: constant-time pick with a high base cost, plus an
	// x86-specific 32-entry mapping resource whose overflow produces the
	// paper's Figure 1 discontinuity.
	SchedPreemptiveMT
)

// KernelCosts parameterises the kernel model (system calls, scheduling,
// pipes).
type KernelCosts struct {
	// Scheduler selects the context-switch mechanism.
	Scheduler SchedulerKind
	// Syscall is the bare trap-and-return cost (the getpid time, Table 2).
	Syscall sim.Duration
	// ReadWriteExtra is added to Syscall for read()/write() on pipes and
	// sockets: argument validation, file table lookup, locking.
	ReadWriteExtra sim.Duration
	// CtxBase is the fixed cost of a context switch: saving and loading
	// register state, switching address spaces.
	CtxBase sim.Duration
	// CtxPerTask is the per-active-task cost of the SchedScanAll pick.
	CtxPerTask sim.Duration
	// CtxTableSize is the capacity of the per-process mapping resource
	// consulted on each switch (SchedPreemptiveMT only; 0 disables).
	CtxTableSize int
	// CtxTableMiss is the penalty for reloading an entry of that table.
	CtxTableMiss sim.Duration
	// PipeWake is the cost of waking the peer blocked on a pipe.
	PipeWake sim.Duration
	// PipeWakeAll selects the pipe wakeup discipline: true wakes every
	// process waiting on the pipe with one PipeWake charge (the
	// thundering-herd behaviour of the era's kernels — woken processes
	// that find the buffer empty simply re-block), false wakes only the
	// head of the FIFO wait queue, charging PipeWake per wake. All the
	// built-in personalities use wake-all, matching what the paper's
	// kernels did; wake-one exists for what-if profiles.
	PipeWakeAll bool
	// PipeCopyPerKB is the one-direction cost of moving pipe data between
	// a user buffer and the kernel. Solaris' STREAMS-based pipes pay
	// message allocation on top of the copy, which is why theirs is
	// largest (§9.1, [Kottapurath 95]).
	PipeCopyPerKB sim.Duration
	// PipeCapacity is the kernel pipe buffer size in bytes.
	PipeCapacity int
	// Fork and Exec are process-creation costs (MAB's compile phase forks
	// a driver, preprocessor, compiler and assembler per source file).
	Fork, Exec sim.Duration
	// PerCPUQueues selects the SMP run-queue layout: true gives every
	// virtual CPU its own queue with deterministic work stealing
	// (Solaris' per-CPU dispatch queues), false shares one global queue
	// (the Linux 1.2 / 4.4BSD big-lock structure). Irrelevant at one CPU,
	// where both reduce to one FIFO queue.
	PerCPUQueues bool
	// StealCost is the extra dispatch cost of pulling a thread off
	// another CPU's queue (PerCPUQueues only).
	StealCost sim.Duration
}

// LockCosts parameterises the SMP lock subsystem: spinlocks with
// capped exponential backoff, sleep locks that block through the
// scheduler, and RCU-style read-mostly paths. The constants are
// per-personality calibrations in the spirit of the kernel costs: the
// paper's systems were measured uniprocessor, so these encode each
// lineage's synchronization style (Linux's bare test-and-set, 4.4BSD's
// tsleep/wakeup, Solaris' adaptive mutexes and dispatcher locks) at
// plausible mid-90s magnitudes.
type LockCosts struct {
	// SpinAcquire is the cost of an uncontended spinlock acquire (and of
	// the release store) — one locked bus transaction plus bookkeeping.
	SpinAcquire sim.Duration
	// SpinCheck is the cost of one failed poll of a held spinlock.
	SpinCheck sim.Duration
	// SpinBackoffMax caps the exponential backoff delay between polls.
	// The ladder starts at SpinCheck and doubles per failed poll; the
	// cap bounds how stale a spinner's view of the lock can get, and is
	// what makes spinning lose to sleeping once critical sections grow
	// long (the handoff delay approaches the cap while a sleep lock's
	// wake+switch cost is fixed).
	SpinBackoffMax sim.Duration
	// SleepAcquire is the cost of an uncontended sleep-lock acquire (and
	// of an uncontended release).
	SleepAcquire sim.Duration
	// SleepBlock is the bookkeeping cost of enqueueing on the lock's
	// wait channel and entering the scheduler (the context-switch cost
	// itself is charged by the dispatcher, as always).
	SleepBlock sim.Duration
	// SleepWake is the releaser's cost of waking the head waiter.
	SleepWake sim.Duration
	// RCURead is the read-side enter+exit cost of an RCU-style section.
	RCURead sim.Duration
	// RCUSync is the writer's fixed cost of one synchronize call, on top
	// of waiting out the readers' grace period.
	RCUSync sim.Duration
}

// FSCosts parameterises the local file-system model.
type FSCosts struct {
	// Type names the file system implementation.
	Type string
	// MetaPolicy is the metadata-update discipline.
	MetaPolicy MetaPolicy
	// SyncWritesPerCreate/Unlink/Mkdir count the synchronous metadata disk
	// writes each operation performs under MetaSync. The paper infers
	// FreeBSD issues more (or farther) writes than Solaris from the
	// constant ~32 ms crtdel gap (§7.2).
	SyncWritesPerCreate int
	SyncWritesPerUnlink int
	SyncWritesPerMkdir  int
	// MetaSeekSpread is how many cylinders apart consecutive metadata
	// writes land — the "seeks further" half of the paper's FreeBSD
	// hypothesis.
	MetaSeekSpread int
	// MetaWriteBytes is the size of one synchronous metadata write.
	// 4.4BSD FFS rewrites whole blocks; SVR4 UFS writes fragments.
	MetaWriteBytes int
	// ReadPerKB/WritePerKB are the CPU+copy costs of moving file data
	// between a user buffer and the buffer cache.
	ReadPerKB, WritePerKB sim.Duration
	// AllocPerCall is the CPU cost a write(2) call pays when it has to
	// allocate new blocks (bitmap search, block-map locking, indirect
	// maintenance), charged once per allocating call. Because bonnie
	// writes 8 KB per call while crtdel writes the whole file in one
	// call, a per-call cost is what lets FreeBSD write bonnie files 50%
	// faster than Solaris (Figure 10) while the crtdel gap between them
	// stays constant in file size (Figure 12). ext2 in Linux 1.2.8 is
	// strikingly expensive here, which keeps its sequential write
	// bandwidth under half of the others' even though its in-place
	// rewrites are fast (Figure 11).
	AllocPerCall sim.Duration
	// RandomIOOverhead is the extra CPU cost of a non-sequential file
	// operation (block-map lookup without read-ahead help). FreeBSD's
	// larger value is what puts it ~50% behind on bonnie's in-cache seek
	// rate (Figure 11).
	RandomIOOverhead sim.Duration
	// OpFixed is the fixed CPU cost of one file-system operation beyond
	// the bare syscall (name lookup, inode manipulation).
	OpFixed sim.Duration
	// SeqReadEff/SeqWriteEff are the fractions of the disk's media rate
	// achieved on cache-miss sequential I/O (read-ahead and clustering
	// quality).
	SeqReadEff, SeqWriteEff float64
	// BufferCacheMB is how much of the 32 MB machine the dynamically sized
	// buffer cache will grow to claim (§7: all three cache ~20 MB files).
	BufferCacheMB int
	// DirtyLimitMB is how much dirty file data may accumulate before the
	// writer is throttled to disk speed.
	DirtyLimitMB int
	// AttrCache reports a separate attribute/name cache that survives data
	// cache pressure — FreeBSD's advantage in MAB's stat phase (§8.1).
	AttrCache bool
}

// NetCosts parameterises the UDP and TCP models (§9).
type NetCosts struct {
	// UDPPerPacket is the combined send+receive per-packet CPU cost:
	// header formation, checksum, buffer management, socket wakeups.
	UDPPerPacket sim.Duration
	// UDPCopyPerKB is the per-KB cost across all copies on the UDP path.
	// Linux 1.2.8's extra copies and "inefficient buffer allocation" make
	// its value much larger (§9.2).
	UDPCopyPerKB sim.Duration
	// TCPPerPacket and TCPCopyPerKB are the TCP equivalents.
	TCPPerPacket sim.Duration
	TCPCopyPerKB sim.Duration
	// TCPWindowPackets is the effective send window in packets. Linux
	// 1.2.8 has a window of one packet, which throttles its TCP to less
	// than half of FreeBSD's bandwidth (§9.3).
	TCPWindowPackets int
	// MSS is the maximum segment size on the loopback path, bytes.
	MSS int
	// AckCost is the receiver's cost to generate and the sender's cost to
	// process one acknowledgement (plus the scheduler round trip, charged
	// by the model).
	AckCost sim.Duration
	// TCPNoise is the relative run-to-run variability of TCP throughput.
	// The paper measured an unusually unstable 16.34% for Solaris.
	TCPNoise float64
	// UDPMaxDatagram is the largest datagram the stack accepts.
	UDPMaxDatagram int
}

// NFSCosts parameterises NFS client and server behaviour (§10).
type NFSCosts struct {
	// ClientPerRPC is the client-side CPU cost per NFS RPC.
	ClientPerRPC sim.Duration
	// TransferSize is the rsize/wsize the client uses with a
	// well-matched server.
	TransferSize int
	// ForeignTransferSize is the rsize/wsize used with a server of a
	// different lineage. Linux 1.2.8's client is "apparently tuned to work
	// with other Linux hosts and performs miserably when connected to
	// other types of servers" — modelled as a small foreign transfer size
	// plus no request pipelining.
	ForeignTransferSize int
	// Pipelined reports whether the client keeps multiple RPCs in flight
	// (biod-style read-ahead/write-behind), overlapping wire time with
	// server processing.
	Pipelined bool
	// ClientCachesData reports whether the client caches file data it has
	// read or written, so re-reads are local. Linux 1.2.8's client does
	// not, which is part of why MAB over NFS punishes it (§10).
	ClientCachesData bool
	// ClientCacheMB bounds the client-side data cache; a working set
	// beyond it falls back to the wire.
	ClientCacheMB int
	// SerializesSyncWrites reports a conservative client that stops
	// pipelining when the server commits synchronously — the Solaris
	// behaviour that makes it degrade badly against the SunOS server
	// (Table 7).
	SerializesSyncWrites bool
	// AttrCacheTTL is how long cached attributes satisfy stats without an
	// RPC (zero disables the attribute cache).
	AttrCacheTTL sim.Duration
	// ServerPerRPC is the server-side CPU cost per RPC when this OS serves.
	ServerPerRPC sim.Duration
	// ServerSyncWrites reports whether the server commits data and
	// metadata to disk before replying, as the NFS spec requires and SunOS
	// does; the Linux 1.2.8 server answers from its cache (§10).
	ServerSyncWrites bool
	// ServerSyncMetaPerWrite is how many synchronous metadata updates
	// (inode times, indirect blocks) accompany each committed write RPC on
	// a sync server.
	ServerSyncMetaPerWrite int
	// RequiresPrivPort reports the Linux 1.2.8 server quirk of rejecting
	// clients on non-privileged ports (§11).
	RequiresPrivPort bool
	// SendsPrivPort reports whether the client binds a privileged port by
	// default (FreeBSD 2.0.5 does not, §11).
	SendsPrivPort bool
}

// Noise gathers the relative run-to-run variability injected per benchmark
// area, calibrated to the paper's reported standard deviations.
type Noise struct {
	Syscall float64 // Table 2 Std Dev
	Ctx     float64 // Figure 1 (2-process values)
	Mem     float64 // Figures 2-8
	FS      float64 // Figures 9-12
	MAB     float64 // Table 3
	Pipe    float64 // Table 4
	UDP     float64 // Figure 13
	NFS     float64 // Tables 6-7
}

// Profile is one operating-system personality.
type Profile struct {
	// Name is the OS name, Version its release.
	Name, Version string
	// Lineage describes the code ancestry the paper discusses in §2.1.
	Lineage string
	// Kernel, FS, Net, NFS hold the subsystem parameters; Lock holds the
	// SMP lock-subsystem parameters.
	Kernel KernelCosts
	Lock   LockCosts
	FS     FSCosts
	Net    NetCosts
	NFS    NFSCosts
	// Noise holds the per-area variability.
	Noise Noise
}

// String returns "Name Version".
func (p *Profile) String() string { return p.Name + " " + p.Version }
