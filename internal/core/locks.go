package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/bench"
	"repro/internal/kernel"
	"repro/internal/osprofile"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The L exhibits run the SMP lock-contention microbenchmark (DESIGN.md
// §16) beyond the paper's uniprocessor world, after the synchronization-
// mechanisms survey in PAPERS.md: the same worker loop under each
// personality's spinlock and sleep lock, swept over CPU count (L1) and
// critical-section length (L2).

// lockNCPUs is the L1 CPU-count sweep.
var lockNCPUs = []int{1, 2, 4, 8, 16}

// lockCrits is the L2 critical-section sweep (log-spaced).
var lockCrits = []sim.Duration{
	1 * sim.Microsecond, 2 * sim.Microsecond, 5 * sim.Microsecond,
	10 * sim.Microsecond, 20 * sim.Microsecond, 50 * sim.Microsecond,
	100 * sim.Microsecond, 200 * sim.Microsecond, 500 * sim.Microsecond,
	1000 * sim.Microsecond,
}

const (
	// lockThink is the uncontended compute between acquisitions.
	lockThink = 5 * sim.Microsecond
	// lockCrit is L1's fixed critical-section length.
	lockCrit = 20 * sim.Microsecond
	// lockIters is the per-thread iteration count.
	lockIters = 400
	// lockSweepNCPU is L2's fixed machine size (and the audit's).
	lockSweepNCPU = 8
)

// lockKinds orders the two contention strategies in exhibit series.
var lockKinds = []kernel.LockKind{kernel.SpinLock, kernel.SleepLock}

// LockPoint runs one lock-contention point with the exhibits'
// construction — the audited run is the exhibited run. Exported for the
// CLI `locks` command.
func LockPoint(p *osprofile.Profile, kind kernel.LockKind, ncpu int, crit sim.Duration) bench.LockResult {
	return bench.LockContention(p, bench.LockWorkload{
		Kind: kind, NCPU: ncpu,
		Think: lockThink, Crit: crit, Iters: lockIters,
	})
}

// lockAudit re-runs the L2 sweep point (eight CPUs, the L1 critical
// section) for both lock kinds — the same construction the exhibits use —
// and checks the per-CPU ledger and lock flow-balance invariants. The
// run is a pure function of its parameters (no RNG), so the audited run
// is the exhibited run; fault plans have nothing to reach here.
func lockAudit(_ probeEnv, p *osprofile.Profile) []*audit.Report {
	var out []*audit.Report
	for _, kind := range lockKinds {
		r := LockPoint(p, kind, lockSweepNCPU, lockCrit)
		m, l := r.Machine, r.Lock
		in := audit.SMPInput{
			System:  fmt.Sprintf("%s %s", p, kind),
			NCPU:    m.NCPU(),
			Threads: len(m.Threads()),
			Elapsed: m.Elapsed(),
			Busy:    make([]sim.Duration, m.NCPU()),
			Idle:    make([]sim.Duration, m.NCPU()),
			Spin:    make([]sim.Duration, m.NCPU()),
			Locks: []audit.LockFacts{{
				Acquires:    l.Acquires,
				Releases:    l.Releases,
				Contended:   l.Contended,
				Uncontended: l.Uncontended,
				Blocks:      l.Blocks,
				Wakeups:     l.Wakeups,
				WaitCount:   l.WaitHist.N(),
			}},
		}
		for c := 0; c < m.NCPU(); c++ {
			in.Busy[c], in.Idle[c], in.Spin[c] = m.Ledger(c)
		}
		out = append(out, audit.EvaluateSMP(in))
	}
	return out
}

func init() {
	register(&Experiment{
		ID:    "L1",
		Title: "Lock-Contention Throughput vs CPU Count",
		Kind:  Figure,
		Paper: "SMP extension of §5 (synchronization survey, PAPERS.md)",
		Run: func(cfg Config) *Result {
			res := &Result{
				ID: "L1", Title: "Lock-Contention Throughput vs CPU Count",
				Kind: Figure, YUnit: "ops/s", XLabel: "cpus",
				Direction: stats.HigherIsBetter,
				Notes: []string{
					"One worker per CPU iterates think → lock → 20 µs critical section → unlock; the lock serializes, so throughput saturates near 1/critical-section and the interesting signal is how much each personality's acquisition machinery wastes getting there.",
					"Spinlocks waste the losing CPUs' cycles in the backoff ladder (visible in the spin ledger, which the audit checks against elapsed exactly); sleep locks pay block/wakeup plus a dispatch per handoff.",
					"Per-CPU busy + idle + spin sums equal elapsed to the nanosecond on every run — `pentiumbench audit -ids L1` re-verifies.",
				},
			}
			type job struct {
				p    *osprofile.Profile
				kind kernel.LockKind
			}
			jobs := make([]job, 0, len(cfg.Profiles)*len(lockKinds))
			for _, p := range cfg.Profiles {
				for _, k := range lockKinds {
					jobs = append(jobs, job{p, k})
				}
			}
			res.Series = make([]Series, len(jobs))
			parallelFor(cfg, len(jobs), func(ji int) {
				p, kind := jobs[ji].p, jobs[ji].kind
				label := fmt.Sprintf("%s %s", p, kind)
				s := Series{
					Label:   label,
					X:       make([]float64, len(lockNCPUs)),
					Samples: make([]*stats.Sample, len(lockNCPUs)),
				}
				for i, ncpu := range lockNCPUs {
					r := LockPoint(p, kind, ncpu, lockCrit)
					s.X[i] = float64(ncpu)
					s.Samples[i] = noiseSample(cfg, saltFor("L1", label, i),
						noiseFor(p, noiseCtx), r.Throughput())
				}
				res.Series[ji] = s
			})
			return res
		},
		Audit: lockAudit,
	})

	register(&Experiment{
		ID:    "L2",
		Title: "Lock Wait-Time p99 vs Critical-Section Length",
		Kind:  Figure,
		Paper: "SMP extension of §5 (synchronization survey, PAPERS.md)",
		Run: func(cfg Config) *Result {
			res := &Result{
				ID: "L2", Title: "Lock Wait-Time p99 vs Critical-Section Length",
				Kind: Figure, YUnit: "µs", XLabel: "critical section (µs)", LogX: true,
				Direction: stats.LowerIsBetter,
				Notes: []string{
					"Eight CPUs contend for one lock; the y-axis is the 99th-percentile wait of contended acquisitions, streamed from the lock's log-bucket histogram.",
					"The spin-vs-sleep crossover: short sections favour spinning (a sleep handoff costs a block, a wakeup, and a dispatch every time), long sections favour sleeping (the backoff ladder overshoots and unfair poll ordering starves whoever backed off furthest, while the sleep queue's FIFO handoff bounds waits at queue-depth × section).",
					"Each personality crosses at a different length — the ladder cap, wakeup cost, and dispatch cost are per-OS calibrations.",
				},
			}
			type job struct {
				p    *osprofile.Profile
				kind kernel.LockKind
			}
			jobs := make([]job, 0, len(cfg.Profiles)*len(lockKinds))
			for _, p := range cfg.Profiles {
				for _, k := range lockKinds {
					jobs = append(jobs, job{p, k})
				}
			}
			res.Series = make([]Series, len(jobs))
			parallelFor(cfg, len(jobs), func(ji int) {
				p, kind := jobs[ji].p, jobs[ji].kind
				label := fmt.Sprintf("%s %s", p, kind)
				s := Series{
					Label:   label,
					X:       make([]float64, len(lockCrits)),
					Samples: make([]*stats.Sample, len(lockCrits)),
				}
				for i, crit := range lockCrits {
					r := LockPoint(p, kind, lockSweepNCPU, crit)
					s.X[i] = crit.Microseconds()
					us := sim.Duration(r.WaitHist.Quantile(0.99)).Microseconds()
					s.Samples[i] = noiseSample(cfg, saltFor("L2", label, i),
						noiseFor(p, noiseCtx), us)
				}
				res.Series[ji] = s
			})
			return res
		},
	})
}
