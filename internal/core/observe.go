package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PhaseRow is one attribution row of a metrics table: a named phase and
// the time (or cycles) it consumed.
type PhaseRow struct {
	Name  string
	Value float64
}

// ObservedRun is one observed model run of an experiment probe: one OS
// personality (or the hardware curve), its cycle-attribution rows, the
// captured trace and the full metric snapshot.
type ObservedRun struct {
	// Label identifies the run (an OS personality, or the hardware).
	Label string
	// Unit is the unit of Rows and Total ("µs" or "cycles").
	Unit string
	// Rows decompose Total by phase; they sum to Total within float
	// re-association tolerance (exactly, for integer-duration ledgers).
	Rows []PhaseRow
	// Total is the run's total simulated time or cycles.
	Total float64
	// Process is the captured trace for Chrome export.
	Process obs.Process
	// Metrics is the run's full metric snapshot.
	Metrics obs.Snapshot
	// Profile is the run's span stream folded into weighted call stacks
	// (virtual nanoseconds; DESIGN.md §10). Folding happens inside the
	// probe task, so parallel suites profile in parallel too.
	Profile *profile.Profile
	// Series is the run's virtual-time time-series snapshot, present
	// only when ObserveOpts.Window enabled sampling and the probe has
	// sampled instrumentation (see SampledIDs).
	Series *obs.TimeSeries
	// Exemplars is the run's per-window sampled request lifecycles,
	// present only when ObserveOpts.ExemplarK enabled exemplar tracing
	// and the probe's model offers them (S1/S2); ExemplarDrops counts
	// offers the per-window reservoir bound rejected.
	Exemplars     []obs.ExemplarWindow
	ExemplarDrops int64
	// LatencyHist is the model's exact latency histogram when the probe
	// has one (S1/S2) — the source of Prometheus `le` bucket boundaries
	// and the attachment point for exemplar buckets.
	LatencyHist *stats.Histogram
}

// Observation is the observability product of one experiment probe.
type Observation struct {
	ID    string
	Title string
	Runs  []ObservedRun
}

// ObserveOpts tune the probes. The zero value selects defaults.
type ObserveOpts struct {
	// Procs is the ctx process count for the F1 probe (default 8).
	Procs int
	// FileBytes is the crtdel file size for the F12 probe (default 64 KB).
	FileBytes int64
	// PacketSize is the datagram size for the F13 probe (default 1024).
	PacketSize int
	// Clients is the client population for the S1/S2 scale probes
	// (default 1000 — the knee of the curves); Nfsd is the server's
	// worker-slot count (default 8).
	Clients int
	Nfsd    int
	// Faults, when non-nil and active, injects the plan's faults into
	// the probes in FaultableIDs. Each (experiment, personality) run
	// forks its own injector RNG from the seed, so results are
	// bit-identical at every worker count. Nil runs clean.
	Faults *fault.Plan
	// Window, when positive, attaches a virtual-time time-series
	// sampler of that window width to the probes in SampledIDs; each
	// sampled run's ObservedRun.Series carries the snapshot. Zero (the
	// default) samples nothing and the probes are byte-identical to
	// builds without the sampler.
	Window sim.Duration
	// ExemplarK, when positive, attaches a deterministic per-window
	// exemplar reservoir of that capacity to the probes in
	// ExemplarIDs: each run's
	// ObservedRun.Exemplars carries the tail-biased sample, the trace
	// gains per-request tracks, and Series (when sampling is also on)
	// attaches the exemplars to its snapshot. Windows follow
	// ObserveOpts.Window, defaulting to 100 ms when sampling is off.
	// Zero (the default) traces nothing and the probes are
	// byte-identical to builds without the reservoir.
	ExemplarK int
}

func (o ObserveOpts) withDefaults() ObserveOpts {
	if o.Procs <= 0 {
		o.Procs = 8
	}
	if o.FileBytes <= 0 {
		o.FileBytes = 64 << 10
	}
	if o.PacketSize <= 0 {
		o.PacketSize = 1024
	}
	if o.Clients <= 0 {
		o.Clients = 1000
	}
	if o.Nfsd <= 0 {
		o.Nfsd = scaleNfsd
	}
	return o
}

// Probe is an experiment's observability descriptor: the model workload
// its Run measures, instrumented with spans and metrics, and the
// instruments that model accepts. Probes and Audit functions are the one
// source of the capability sets, each ...IDs function a filter over All.
type Probe struct {
	// Run observes the model for personality p (nil for a Hardware
	// probe), with the instruments env attaches as the flags allow.
	Run func(env probeEnv, p *osprofile.Profile) ObservedRun
	// Hardware probes the machine alone (the §6 memory figures): Observe
	// runs it once, not once per personality.
	Hardware bool
	// Sampled models keep time series; Faultable models (disk, network,
	// buffer cache) consult the fault injectors; Exemplars models offer
	// request lifecycles and an exact latency histogram.
	Sampled, Faultable, Exemplars bool
}

// probeEnv is what one probe or audit run sees: the configuration, the
// defaulted options, and the experiment whose descriptor gates the
// instruments.
type probeEnv struct {
	cfg  Config
	opts ObserveOpts
	e    *Experiment
}

// observer builds one personality's instruments: the plan's injectors
// for a faultable probe, a sampler for a sampled one when a window is
// set, and otherwise the zero value every model treats as absent.
func (env probeEnv) observer(p *osprofile.Profile) bench.Observer {
	var o bench.Observer
	if env.e.Probe.Faultable {
		o.Faults = injFor(env.cfg, env.opts, env.e.ID, p)
	}
	if env.e.Probe.Sampled {
		o.Sampler = samplerFor(env.opts)
	}
	return o
}

// profilesOf returns the personalities a probe or audit runs over: the
// configured set, defaulting to the paper's three.
func profilesOf(cfg Config) []*osprofile.Profile {
	if len(cfg.Profiles) == 0 {
		return osprofile.Paper()
	}
	return cfg.Profiles
}

// probesWhere filters the observable experiments by their probes.
func probesWhere(keep func(*Probe) bool) []string {
	return idsWhere(func(e *Experiment) bool { return e.Probe != nil && keep(e.Probe) })
}

// ObservableIDs returns the experiment IDs Observe has probes for, in
// presentation order.
func ObservableIDs() []string { return probesWhere(func(*Probe) bool { return true }) }

// SampledIDs returns the observable experiments whose probes carry
// time-series instrumentation.
func SampledIDs() []string { return probesWhere(func(p *Probe) bool { return p.Sampled }) }

// FaultableIDs returns the observable experiments whose probes consult
// the fault injectors.
func FaultableIDs() []string { return probesWhere(func(p *Probe) bool { return p.Faultable }) }

// ExemplarIDs returns the observable experiments whose probes offer
// exemplar request lifecycles and a latency histogram.
func ExemplarIDs() []string { return probesWhere(func(p *Probe) bool { return p.Exemplars }) }

// rows extracts attribution rows from a snapshot: the counters carrying
// the given prefix and suffix, with both trimmed from the row name.
func rows(snap obs.Snapshot, prefix, suffix string) []PhaseRow {
	var out []PhaseRow
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, prefix) && strings.HasSuffix(c.Name, suffix) {
			name := strings.TrimSuffix(strings.TrimPrefix(c.Name, prefix), suffix)
			out = append(out, PhaseRow{Name: name, Value: c.Value})
		}
	}
	return out
}

// benchRun adapts a bench.Observation into an ObservedRun with µs rows
// drawn from the snapshot counters matching prefix+...+suffix.
func benchRun(label string, o bench.Observation, prefix, suffix string) ObservedRun {
	return ObservedRun{
		Label:   label,
		Unit:    "µs",
		Rows:    rows(o.Metrics, prefix, suffix),
		Total:   o.Total.Microseconds(),
		Process: o.Process,
		Metrics: o.Metrics,
	}
}

// Observe runs the observability probe for one experiment: the same model
// workload the experiment measures, instrumented with spans and metrics.
// Every probe is deterministic — virtual time stamps, fixed seeds — so
// its output is bit-identical across runs and worker counts.
func Observe(cfg Config, id string, opts ObserveOpts) (*Observation, error) {
	e, ok := Lookup(id)
	if !ok || e.Probe == nil {
		return nil, fmt.Errorf("core: no observability probe for %q (have %v)", id, ObservableIDs())
	}
	env := probeEnv{cfg: cfg, opts: opts.withDefaults(), e: e}
	profiles := profilesOf(cfg)
	if e.Probe.Hardware {
		profiles = []*osprofile.Profile{nil}
	}
	out := &Observation{ID: id, Title: e.Title}
	for _, p := range profiles {
		// Folding inside the probe task keeps the work parallel.
		run := e.Probe.Run(env, p)
		run.Profile = profile.Fold(run.Process)
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

// samplerFor builds one probe run's time-series sampler, or nil when
// sampling is off — the nil threads through every model as inert
// handles, so the disabled path is byte-identical to builds without it.
func samplerFor(opts ObserveOpts) *obs.Sampler {
	if opts.Window <= 0 {
		return nil
	}
	return obs.NewSampler(opts.Window)
}

// exemplarsFor builds one S1/S2 probe run's exemplar reservoir, or nil
// when exemplar tracing is off. The seed forks from the config seed with
// its own salt, so exemplar selection is deterministic and independent
// of the model's RNG streams; the window width follows the sampler's,
// defaulting to 100 ms when sampling is off.
func exemplarsFor(cfg Config, opts ObserveOpts, p *osprofile.Profile) *obs.Exemplars {
	if opts.ExemplarK <= 0 {
		return nil
	}
	w := opts.Window
	if w <= 0 {
		w = 100 * sim.Millisecond
	}
	return obs.NewExemplars(cfg.Seed^saltFor("exemplar", p.Name, opts.Clients), opts.ExemplarK, w)
}

// seriesOf snapshots a run's sampler at its end time; nil in, nil out.
func seriesOf(smp *obs.Sampler, end sim.Duration) *obs.TimeSeries {
	if smp == nil {
		return nil
	}
	ts := smp.Snapshot(sim.Time(end))
	return &ts
}

// injFor builds the fault injectors for one (experiment, personality)
// probe run. The injector RNG forks from the seed with the same salt
// scheme the noise model uses, so a faulted suite is deterministic at
// every worker count and across runs. An inactive plan returns the
// zero Injectors without touching any RNG.
func injFor(cfg Config, opts ObserveOpts, id string, p *osprofile.Profile) fault.Injectors {
	return fault.New(opts.Faults, sim.NewRNG(cfg.Seed).Fork(saltFor(id, p.String(), 0)))
}

// FoldMetrics adds the run's statistics — pool shape, job counts, memo
// effectiveness, wall-clock times and worker utilization — to a registry
// under the given prefix. These are the runner's self-observability
// gauges; they carry real wall-clock time and therefore vary run to run,
// which is why determinism checks strip the prefix.
func (st *RunStats) FoldMetrics(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + "workers").Add(float64(st.Workers))
	reg.Counter(prefix + "jobs").Add(float64(st.Jobs))
	reg.Counter(prefix + "inner_jobs").Add(float64(st.InnerJobs))
	reg.Counter(prefix + "memo_hits").Add(float64(st.MemoHits))
	reg.Counter(prefix + "memo_misses").Add(float64(st.MemoMisses))
	if st.Store != nil {
		// Persistent result-memo effectiveness, present only when a store
		// was attached (-memo), so storeless snapshots are unchanged.
		reg.Counter(prefix + "memo_store_hits").Add(float64(st.Store.Hits))
		reg.Counter(prefix + "memo_store_misses").Add(float64(st.Store.Misses))
		reg.Counter(prefix + "memo_store_stale").Add(float64(st.Store.Stale))
	}
	reg.Counter(prefix + "wall_us").Add(float64(st.Wall.Microseconds()))
	d := reg.Distribution(prefix + "experiment_wall_us")
	var busy time.Duration
	for _, e := range st.Experiments {
		d.Observe(float64(e.Wall.Microseconds()))
		busy += e.Wall
	}
	if st.Wall > 0 && st.Workers > 0 {
		util := float64(busy) / (float64(st.Wall) * float64(st.Workers))
		reg.Counter(prefix + "worker_utilization_pct").Add(100 * util)
	}
}

// SuiteObservation is the product of Runner.Observe: per-experiment
// observations, all trace processes in deterministic order, one
// merged metric snapshot, and the merged virtual-time profile.
// Everything except the "runner." self-metrics (real wall-clock,
// inherently nondeterministic) is bit-identical at every worker count;
// strip them with Metrics.ExcludePrefix("runner.") when comparing.
type SuiteObservation struct {
	Observations []*Observation
	Processes    []obs.Process
	Metrics      obs.Snapshot
	// Profile merges every run's folded profile in input order. Its
	// exports (folded, pprof, top) are byte-identical at every worker
	// count: per-run folds happen in the probe tasks, the merge walks
	// runs in input order, and the export order is canonical.
	Profile *profile.Profile
}

// Observe runs the probes for the given experiment IDs on the worker
// pool. Each probe runs with its own recorder and registry; the results
// are merged in input order — task order, never completion order — which
// is what makes the output independent of the worker count.
func (r *Runner) Observe(cfg Config, ids []string, opts ObserveOpts) (*SuiteObservation, error) {
	obsv := make([]*Observation, len(ids))
	errs := make([]error, len(ids))
	timings := make([]ExperimentTiming, len(ids))
	start := time.Now()
	r.fanOut(len(ids), func(i int, _ *workPool) {
		t0 := time.Now()
		obsv[i], errs[i] = Observe(cfg, ids[i], opts)
		timings[i] = ExperimentTiming{ID: ids[i], Wall: time.Since(t0)}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("observe %s: %w", ids[i], err)
		}
	}

	suite := &SuiteObservation{Observations: obsv, Profile: profile.New()}
	var parts []obs.Snapshot
	var dropped, exDropped int64
	for _, o := range obsv {
		for _, run := range o.Runs {
			parts = append(parts, run.Metrics)
			suite.Processes = append(suite.Processes, run.Process)
			suite.Profile.Merge(run.Profile)
			dropped += int64(run.Process.Dropped)
			exDropped += run.ExemplarDrops
		}
	}
	merged := obs.MergeSnapshots(parts...)

	// Runner self-observability: real wall-clock task timings and worker
	// utilization, kept under "runner." so determinism comparisons can
	// exclude them.
	st := &RunStats{Workers: r.workers(), Jobs: len(ids), Wall: time.Since(start), Experiments: timings}
	reg := obs.NewRegistry()
	st.FoldMetrics(reg, "runner.")
	// Capture fidelity, summed across runs: ring-bound trace truncation
	// (so dropped events are visible outside `trace -format=text`) and
	// exemplar reservoir rejections. Under "runner." like the other
	// self-metrics: the values are deterministic, but they describe the
	// capture, not the models.
	reg.Counter("runner.obs_dropped").Add(float64(dropped))
	reg.Counter("runner.exemplars_dropped").Add(float64(exDropped))
	suite.Metrics = obs.MergeSnapshots(merged, reg.Snapshot())
	return suite, nil
}
