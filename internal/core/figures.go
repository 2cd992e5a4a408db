package core

import (
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/stats"
)

// ctxProcCounts is Figure 1's process-count sweep.
var ctxProcCounts = []int{2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128, 192, 256, 512}

func init() {
	plat := bench.PaperPlatform()

	register(&Experiment{
		ID:    "F1",
		Title: "Context Switch vs. Active Processes",
		Kind:  Figure,
		Paper: "Figure 1, §5",
		Run: func(cfg Config) *Result {
			res := &Result{
				ID: "F1", Title: "Context Switch vs. Active Processes", Kind: Figure,
				YUnit: "µs", XLabel: "active processes", LogX: true,
				Direction: stats.LowerIsBetter,
				Expected: []Expectation{
					{Label: "Linux 1.2.8 @2", Mean: 55, StdDevPct: 3},
					{Label: "FreeBSD 2.0.5R @2", Mean: 80, StdDevPct: 4},
					{Label: "Solaris 2.4 @2", Mean: 220, StdDevPct: 9},
				},
				Notes: []string{
					"Linux grows linearly (O(n) task-list scan) but wins below ~20 processes.",
					"FreeBSD is flat at ~80 µs at every process count.",
					"Solaris is slowest everywhere, with a sharp jump past 32 processes.",
					"The Solaris-LIFO chain still jumps at 32 but grows gradually past 64.",
				},
			}
			type ctxSlot struct {
				p     *osprofile.Profile
				order bench.CtxOrder
				label string
			}
			var slots []ctxSlot
			for _, p := range cfg.Profiles {
				slots = append(slots, ctxSlot{p, bench.CtxRing, p.String()})
			}
			// The paper adds the LIFO variant for Solaris only.
			for _, p := range cfg.Profiles {
				if p.Kernel.Scheduler == osprofile.SchedPreemptiveMT {
					slots = append(slots, ctxSlot{p, bench.CtxLIFO, p.Name + "-LIFO"})
				}
			}
			res.Series = make([]Series, len(slots))
			parallelFor(cfg, len(slots), func(i int) {
				res.Series[i] = ctxSeries(cfg, slots[i].p, slots[i].order, slots[i].label)
			})
			return res
		},
		Probe: &Probe{Sampled: true, Run: func(env probeEnv, p *osprofile.Profile) ObservedRun {
			ob := env.observer(p)
			_, o := ob.Ctx(plat, p, env.opts.Procs, bench.CtxRing)
			run := benchRun(p.String(), o, "kernel.phase_us.", "")
			run.Series = seriesOf(ob.Sampler, o.Total)
			return run
		}},
	})

	// Figures 2-8: the memory suite. One experiment per figure, all a
	// single hardware curve.
	memFigs := []struct {
		id, title string
		routine   memmodel.Routine
		expected  []Expectation
		notes     []string
	}{
		{"F2", "Custom Read Bandwidth", memmodel.CustomRead,
			[]Expectation{
				{Label: "L1 plateau", Mean: 300},
				{Label: "L2 plateau", Mean: 110},
				{Label: "memory plateau", Mean: 75},
			},
			[]string{"Humps at 8 KB and 256 KB reveal the cache sizes."}},
		{"F3", "Memset Bandwidth", memmodel.Memset,
			[]Expectation{{Label: "peak", Mean: 45}},
			[]string{"Flat and below 50 MB/s at every size: writes never allocate, so every store goes to the bus."}},
		{"F4", "Naive Custom Write Bandwidth", memmodel.NaiveWrite,
			[]Expectation{{Label: "peak", Mean: 45}},
			[]string{"Very similar to memset (paper §6.2)."}},
		{"F5", "Prefetching Custom Write Bandwidth", memmodel.PrefetchWrite,
			[]Expectation{{Label: "peak", Mean: 310}},
			[]string{"Software prefetch recovers write-allocate behaviour: peak 310 MB/s."}},
		{"F6", "Memcpy Bandwidth", memmodel.LibcMemcpy,
			[]Expectation{{Label: "typical", Mean: 40}},
			[]string{"About 40 MB/s: destination stores miss and go to the bus."}},
		{"F7", "Naive Custom Copy Bandwidth", memmodel.NaiveCopy,
			[]Expectation{{Label: "typical", Mean: 40}},
			[]string{"Resembles memcpy (paper §6.3)."}},
		{"F8", "Prefetching Custom Copy Bandwidth", memmodel.PrefetchCopy,
			[]Expectation{{Label: "peak", Mean: 160}},
			[]string{"Over 160 MB/s copied (320 MB/s total), approaching the read peak."}},
	}
	for _, mf := range memFigs {
		mf := mf
		register(&Experiment{
			ID:    mf.id,
			Title: mf.title,
			Kind:  Figure,
			Paper: "Figures 2-8, §6",
			Run: func(cfg Config) *Result {
				res := &Result{
					ID: mf.id, Title: mf.title, Kind: Figure,
					YUnit: "MB/s", XLabel: "buffer bytes", LogX: true,
					Direction: stats.HigherIsBetter,
					Expected:  mf.expected,
					Notes:     mf.notes,
				}
				sizes := bench.MemSweepSizes()
				points := memSweep(cfg, cache.PentiumConfig(), mf.routine,
					memmodel.DefaultPrefetchDistance, sizes)
				s := Series{Label: "Pentium P54C-100"}
				// Memory noise is hardware-level; use the first profile's.
				rel := 0.01
				if len(cfg.Profiles) > 0 {
					rel = noiseFor(cfg.Profiles[0], noiseMem)
				}
				for i, pt := range points {
					s.X = append(s.X, float64(pt.Size))
					s.Samples = append(s.Samples,
						noiseSample(cfg, saltFor(mf.id, "hw", i), rel, pt.MBs))
				}
				res.Series = append(res.Series, s)
				return res
			},
			Probe: &Probe{Hardware: true, Run: func(probeEnv, *osprofile.Profile) ObservedRun {
				return memProbe(plat, mf.routine)
			}},
		})
	}

	// Figures 9-11: bonnie.
	bonnieFigs := []struct {
		id, title, unit string
		dir             stats.Direction
		pick            func(bench.BonnieResult) float64
		notes           []string
	}{
		{"F9", "Bonnie Sequential Read", "MB/s", stats.HigherIsBetter,
			func(r bench.BonnieResult) float64 { return r.ReadMBs },
			[]string{
				"All three cache files up to ~20 MB of the 32 MB machine.",
				"FreeBSD reads 5-15% faster in cache; Solaris is best out of cache; Linux worst out of cache.",
			}},
		{"F10", "Bonnie Sequential Write", "MB/s", stats.HigherIsBetter,
			func(r bench.BonnieResult) float64 { return r.WriteMBs },
			[]string{
				"FreeBSD writes small files ~50% faster than Solaris.",
				"Linux maintains less than half the write bandwidth of the others at almost all sizes.",
			}},
		{"F11", "Bonnie Random Seeks", "seeks/s", stats.HigherIsBetter,
			func(r bench.BonnieResult) float64 { return r.SeeksPerSec },
			[]string{
				"Linux and Solaris do ~50% more seeks+I/O per second than FreeBSD in cache.",
				"All three converge to ~14 ms per uncached random seek.",
			}},
	}
	for _, bf := range bonnieFigs {
		bf := bf
		register(&Experiment{
			ID:    bf.id,
			Title: bf.title,
			Kind:  Figure,
			Paper: "Figures 9-11, §7.1",
			Run: func(cfg Config) *Result {
				res := &Result{
					ID: bf.id, Title: bf.title, Kind: Figure,
					YUnit: bf.unit, XLabel: "file MB", LogX: true,
					Direction: bf.dir, Notes: bf.notes,
				}
				sizes := bench.BonnieSweepSizes()
				res.Series = make([]Series, len(cfg.Profiles))
				parallelFor(cfg, len(cfg.Profiles), func(pi int) {
					p := cfg.Profiles[pi]
					s := Series{
						Label:   p.String(),
						X:       make([]float64, len(sizes)),
						Samples: make([]*stats.Sample, len(sizes)),
					}
					parallelFor(cfg, len(sizes), func(i int) {
						r := bench.Bonnie(plat, p, sizes[i], cfg.Seed+uint64(i))
						s.X[i] = float64(sizes[i])
						s.Samples[i] = noiseSample(cfg, saltFor(bf.id, p.String(), i), noiseFor(p, noiseFS), bf.pick(r))
					})
					res.Series[pi] = s
				})
				return res
			},
		})
	}

	register(&Experiment{
		ID:    "F12",
		Title: "File Create/Delete (crtdel)",
		Kind:  Figure,
		Paper: "Figure 12, §7.2",
		Run: func(cfg Config) *Result {
			res := &Result{
				ID: "F12", Title: "File Create/Delete (crtdel)", Kind: Figure,
				YUnit: "ms", XLabel: "file bytes", LogX: true,
				Direction: stats.LowerIsBetter,
				Expected: []Expectation{
					{Label: "Solaris 2.4 @1KB", Mean: 34},
					{Label: "FreeBSD 2.0.5R @1KB", Mean: 66},
				},
				Notes: []string{
					"Linux never touches the disk: ext2 updates metadata asynchronously — an order of magnitude faster.",
					"FreeBSD trails Solaris by a near-constant ~32 ms: more (or farther) synchronous metadata writes.",
				},
			}
			sizes := bench.CrtdelSweepSizes()
			res.Series = make([]Series, len(cfg.Profiles))
			parallelFor(cfg, len(cfg.Profiles), func(pi int) {
				p := cfg.Profiles[pi]
				s := Series{
					Label:   p.String(),
					X:       make([]float64, len(sizes)),
					Samples: make([]*stats.Sample, len(sizes)),
				}
				parallelFor(cfg, len(sizes), func(i int) {
					d := bench.Crtdel(plat, p, sizes[i], cfg.Seed+uint64(i))
					s.X[i] = float64(sizes[i])
					s.Samples[i] = noiseSample(cfg, saltFor("F12", p.String(), i), noiseFor(p, noiseFS), d.Milliseconds())
				})
				res.Series[pi] = s
			})
			return res
		},
		Probe: &Probe{Sampled: true, Faultable: true, Run: func(env probeEnv, p *osprofile.Profile) ObservedRun {
			ob := env.observer(p)
			_, o := ob.Crtdel(plat, p, env.opts.FileBytes, env.cfg.Seed)
			run := benchRun(p.String(), o, "fs.phase_us.", "")
			run.Series = seriesOf(ob.Sampler, o.Total)
			return run
		}},
	})

	register(&Experiment{
		ID:    "F13",
		Title: "UDP Bandwidth (ttcp)",
		Kind:  Figure,
		Paper: "Figure 13, §9.2",
		Run: func(cfg Config) *Result {
			res := &Result{
				ID: "F13", Title: "UDP Bandwidth (ttcp)", Kind: Figure,
				YUnit: "Mb/s", XLabel: "packet bytes", LogX: true,
				Direction: stats.HigherIsBetter,
				Expected: []Expectation{
					{Label: "FreeBSD 2.0.5R peak", Mean: 48},
					{Label: "Solaris 2.4 peak", Mean: 32},
					{Label: "Linux 1.2.8 peak", Mean: 16},
				},
				Notes: []string{
					"FreeBSD approaches 50 Mb/s (half its pipe bandwidth); Solaris peaks at ~32 (also half of pipes).",
					"Linux, despite the best pipes, is worst at UDP: extra copies and inefficient buffer allocation (14% of its pipe bandwidth).",
				},
			}
			sizes := bench.TTCPSweepSizes()
			res.Series = make([]Series, len(cfg.Profiles))
			parallelFor(cfg, len(cfg.Profiles), func(pi int) {
				p := cfg.Profiles[pi]
				s := Series{
					Label:   p.String(),
					X:       make([]float64, len(sizes)),
					Samples: make([]*stats.Sample, len(sizes)),
				}
				for i, size := range sizes {
					bw := bench.TTCP(p, size)
					s.X[i] = float64(size)
					s.Samples[i] = noiseSample(cfg, saltFor("F13", p.String(), i), noiseFor(p, noiseUDP), bw)
				}
				res.Series[pi] = s
			})
			return res
		},
		Probe: &Probe{Faultable: true, Run: func(env probeEnv, p *osprofile.Profile) ObservedRun {
			_, o := env.observer(p).TTCP(p, env.opts.PacketSize)
			return benchRun(p.String(), o, "udp.", "_us")
		}},
	})
}

// ctxSeries runs the Figure 1 sweep for one OS and pattern, fanning the
// process-count points out on the worker pool. (The "F1" salt is shared
// with ablation A3, which reuses these curves; keep it.)
func ctxSeries(cfg Config, p *osprofile.Profile, order bench.CtxOrder, label string) Series {
	plat := bench.PaperPlatform()
	s := Series{
		Label:   label,
		X:       make([]float64, len(ctxProcCounts)),
		Samples: make([]*stats.Sample, len(ctxProcCounts)),
	}
	parallelFor(cfg, len(ctxProcCounts), func(i int) {
		n := ctxProcCounts[i]
		d := bench.Ctx(plat, p, n, order)
		s.X[i] = float64(n)
		s.Samples[i] = noiseSample(cfg, saltFor("F1", label, i), noiseFor(p, noiseCtx), d.Microseconds())
	})
	return s
}

// memProbe observes one §6 routine on a 1 MB buffer: the figures' single
// hardware curve, its cycles attributed to the cache levels, write-back
// and loop overhead.
func memProbe(plat bench.Platform, r memmodel.Routine) ObservedRun {
	const size = 1 << 20
	m := memmodel.NewModel(plat.CPU, cache.PentiumConfig())
	pt := m.ObservedBandwidth(r, size)
	reg := obs.NewRegistry()
	pt.Stats.FoldStats(reg, "cache.")
	reg.Counter("mem.mbs").Add(pt.MBs)
	reg.Counter("mem.overlap_cycles").Add(pt.Overlap)
	b := pt.Breakdown
	return ObservedRun{
		Label: "Pentium P54C-100",
		Unit:  "cycles",
		Rows: []PhaseRow{
			{Name: "l1", Value: b.L1},
			{Name: "l2", Value: b.L2},
			{Name: "mem", Value: b.Mem},
			{Name: "writeback", Value: b.WriteBack},
			{Name: "overhead", Value: b.Overhead},
		},
		Total:   pt.SimCycles,
		Process: obs.Process{Name: "Pentium P54C-100"},
		Metrics: reg.Snapshot(),
	}
}
