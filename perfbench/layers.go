package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/memmodel"
	"repro/internal/memo"
	"repro/internal/netstack"
	"repro/internal/nfsserver"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sim"
)

// probeMin is how long a repeated layer probe runs at least; the median
// call is reported.
const probeMin = 40 * time.Millisecond

// prober times calls into one layer's public functions, each inside a
// span of the run's tracer.
type prober struct {
	o   options
	tr  *tracer
	out *outcome
	g   *gate
	cfg core.Config
	// serve is the traced cycle the serve and memo probes read.
	serve *cycle
}

// repeat calls f inside spans named name under parent until it has run
// at least three times and probeMin in total, and returns the median
// call in nanoseconds.
func (p *prober) repeat(name string, parent int, f func()) float64 {
	ns, _ := p.repeatN(name, parent, f)
	return ns
}

// repeatN is repeat that also returns the number of calls made.
func (p *prober) repeatN(name string, parent int, f func()) (float64, int) {
	var ns []float64
	var total time.Duration
	for len(ns) < 3 || total < probeMin {
		d := p.tr.do(name, parent, 0, f)
		ns = append(ns, float64(d))
		total += d
	}
	return median(ns), len(ns)
}

// once calls f inside one span and returns its duration in milliseconds.
func (p *prober) once(name string, parent int, f func()) float64 {
	return float64(p.tr.do(name, parent, 0, f)) / 1e6
}

// traced is --trace 1: the workload's passes alternately untraced and
// traced (the difference is trace.overhead_pct), then every layer probe.
func traced(o options) (*outcome, error) {
	p := &prober{o: o, tr: newTracer(), out: newOutcome(), g: newGate(o.seed), cfg: configFor(o.seed)}
	if err := p.overhead(); err != nil {
		return nil, err
	}
	if p.serve == nil {
		c, err := serveCycle(o, p.g, p.out, rand.New(rand.NewSource(int64(o.seed))), p.tr, 0)
		if err != nil {
			return nil, err
		}
		p.serve = &c
	}
	steps := []func() error{p.core, p.cache, p.memmodel, p.kernel, p.storage, p.scale, p.sim, p.memo, p.observe}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	p.serveLayer()
	writeSelfTable(o.out, p.tr.snapshot(), 30)
	writeTable(o.out, p.out.metrics)
	return p.out, nil
}

// overhead alternates untraced and traced passes of the workload for
// --seconds (at least one of each) and reports how much slower the
// traced ones were.
func (p *prober) overhead() error {
	var plain, withTrace []float64
	rng := rand.New(rand.NewSource(int64(p.o.seed)))
	exps := exhibitsOf(p.o.workload)
	deadline := time.Now().Add(time.Duration(p.o.seconds) * time.Second)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = p.tr
		}
		var wall float64
		if p.o.workload == "serve" {
			c, err := serveCycle(p.o, p.g, p.out, rng, tr, i)
			if err != nil {
				return err
			}
			if tr != nil {
				p.serve = &c
			}
			wall = c.wallS()
		} else {
			ps := runPass(p.cfg, exps, tr, i)
			gateExhibits(p.out, p.g, ps)
			wall = ps.wall.Seconds()
			if p.o.workload == "memory" {
				p.setSweepRatio(ps.stats)
			}
		}
		if tr != nil {
			withTrace = append(withTrace, wall)
		} else {
			plain = append(plain, wall)
		}
	}
	base := median(plain)
	p.out.set("trace.overhead_pct", (median(withTrace)-base)/base*100, "%")
	return nil
}

func (p *prober) setSweepRatio(st *core.RunStats) {
	p.out.set("core.sweep_hit_ratio", float64(st.MemoHits)/float64(st.MemoHits+st.MemoMisses), "ratio")
}

// core runs every exhibit in its own RunAll and renders it: host cost
// per exhibit, rendering cost, and the simulated numbers' error against
// the paper.
func (p *prober) core() error {
	parent := p.tr.begin("layer.core", -1, 0)
	defer p.tr.end(parent)
	var all []*core.Result
	var render float64
	for _, e := range core.All() {
		var res []*core.Result
		ms := p.once("core.RunAll", parent, func() { res, _ = core.NewRunner(1).RunAll(p.cfg, []*core.Experiment{e}) })
		p.out.set("core.exhibit_ms."+e.ID, ms, "ms")
		var b bytes.Buffer
		render += p.once("report.Render", parent, func() { report.Render(&b, res[0]) })
		p.out.op("exhibit "+e.ID, p.g.check("exhibit:"+e.ID, digest(b.Bytes())))
		all = append(all, res...)
	}
	p.out.set("report.render_ms", render, "ms")
	p.out.set("core.paper_err_pct", paperErrPct(all), "%")
	if _, ok := p.out.metrics["core.sweep_hit_ratio"]; !ok {
		var st *core.RunStats
		p.once("core.RunAll", parent, func() { _, st = core.NewRunner(1).RunAll(p.cfg, exhibitsOf("memory")) })
		p.setSweepRatio(st)
	}
	return nil
}

// cache times the line-granular run entry points on working sets inside
// L1, inside L2 and beyond L2, per simulated line, and a pooled
// hierarchy's acquire/release.
func (p *prober) cache() error {
	parent := p.tr.begin("layer.cache", -1, 0)
	defer p.tr.end(parent)
	cfg := cache.PentiumConfig()
	h, err := cache.Acquire(cfg)
	if err != nil {
		return err
	}
	defer h.Release()
	sets := []struct {
		name  string
		bytes int
	}{{"l1", 2 << 10}, {"l2", 64 << 10}, {"mem", 2 << 20}}
	const dst = 64 << 20
	for _, s := range sets {
		words, lines := s.bytes/cache.WordSize, float64(s.bytes/cfg.LineSize)
		ops := []struct {
			name string
			f    func()
		}{
			{"read", func() { h.ReadRun(0, words, 8, 1) }},
			{"write", func() { h.WriteRun(0, words, 8, 1) }},
			{"copy", func() { h.CopyRun(0, dst, words, 8, 1) }},
		}
		for _, op := range ops {
			h.Flush()
			op.f() // fill: the timed calls see the steady state
			ns := p.repeat("cache."+op.name+"Run", parent, op.f)
			p.out.set("cache.ns_per_line."+op.name+"."+s.name, ns/lines, "ns")
		}
	}
	const pairs = 1000
	ns := p.repeat("cache.Acquire", parent, func() {
		for i := 0; i < pairs; i++ {
			cache.MustAcquire(cfg).Release()
		}
	})
	p.out.set("cache.acquire_us", ns/pairs/1e3, "us")
	return nil
}

// figureRoutines maps the §6 figures to their memory routines.
var figureRoutines = []struct {
	id string
	r  memmodel.Routine
}{
	{"F2", memmodel.CustomRead}, {"F3", memmodel.Memset}, {"F4", memmodel.NaiveWrite},
	{"F5", memmodel.PrefetchWrite}, {"F6", memmodel.LibcMemcpy}, {"F7", memmodel.NaiveCopy},
	{"F8", memmodel.PrefetchCopy},
}

// memmodel times one sweep point per routine at a 1 MB buffer, beyond L2.
func (p *prober) memmodel() error {
	parent := p.tr.begin("layer.memmodel", -1, 0)
	defer p.tr.end(parent)
	c := bench.PaperPlatform().CPU
	for _, f := range figureRoutines {
		ns := p.repeat("memmodel.SweepPoint", parent, func() {
			memmodel.SweepPoint(c, cache.PentiumConfig(), f.r, memmodel.DefaultPrefetchDistance, 1<<20)
		})
		p.out.set("memmodel.point_ms."+f.id, ns/1e6, "ms")
	}
	return nil
}

// kernel times the uniprocessor machine per simulated context switch and
// system call, a pipe bandwidth run, and SMP lock points at 16 CPUs.
func (p *prober) kernel() error {
	parent := p.tr.begin("layer.kernel", -1, 0)
	defer p.tr.end(parent)
	plat, linux := bench.PaperPlatform(), osprofile.Paper()[0]
	for _, n := range []int{2, 8, 32} {
		_, o := bench.CtxObserved(plat, linux, n, bench.CtxRing)
		switches, ok := o.Metrics.Get("kernel.context_switches")
		if !ok || switches == 0 {
			return fmt.Errorf("kernel probe: ctx n=%d counted no switches", n)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ns, calls := p.repeatN("bench.Ctx", parent, func() { bench.Ctx(plat, linux, n, bench.CtxRing) })
		runtime.ReadMemStats(&m1)
		p.out.set(fmt.Sprintf("kernel.ns_per_switch.n%d", n), ns/switches, "ns")
		if n == 8 {
			p.out.set("kernel.allocs_per_switch", float64(m1.Mallocs-m0.Mallocs)/float64(calls)/switches, "count")
		}
	}
	ns := p.repeat("bench.Getpid", parent, func() { bench.Getpid(plat, linux) })
	p.out.set("kernel.ns_per_syscall", ns/bench.GetpidIterations, "ns")
	ns = p.repeat("bench.BwPipe", parent, func() { bench.BwPipe(plat, linux) })
	p.out.set("kernel.pipe_ms", ns/1e6, "ms")
	for _, k := range []struct {
		name string
		kind kernel.LockKind
	}{{"spin", kernel.SpinLock}, {"sleep", kernel.SleepLock}} {
		ms := p.once("core.LockPoint", parent, func() { core.LockPoint(linux, k.kind, 16, 20*sim.Microsecond) })
		p.out.set("kernel.lockpoint_ms."+k.name, ms, "ms")
	}
	return nil
}

// storage times the file system, disk, network stack and NFS client
// models through the benchmarks and entry points the exhibits use.
func (p *prober) storage() error {
	plat, linux, seed := bench.PaperPlatform(), osprofile.Paper()[0], p.o.seed
	parent := p.tr.begin("layer.fs", -1, 0)
	p.out.set("fs.crtdel_ms", p.repeat("bench.Crtdel", parent, func() { bench.Crtdel(plat, linux, 64<<10, seed) })/1e6, "ms")
	p.out.set("fs.mab_ms", p.repeat("bench.MAB", parent, func() { bench.MAB(plat, linux, bench.DefaultMAB(), seed) })/1e6, "ms")
	p.out.set("fs.bonnie_ms", p.repeat("bench.Bonnie", parent, func() { bench.Bonnie(plat, linux, 16, seed) })/1e6, "ms")
	p.tr.end(parent)

	parent = p.tr.begin("layer.disk", -1, 0)
	d, err := disk.New(disk.HP3725(), sim.NewRNG(seed))
	if err != nil {
		return err
	}
	const accesses = 10000
	blocks := d.Blocks()
	rng := rand.New(rand.NewSource(int64(seed)))
	random := make([]int64, accesses)
	for i := range random {
		random[i] = rng.Int63n(blocks)
	}
	seq := p.repeat("disk.Access", parent, func() {
		for i := int64(0); i < accesses; i++ {
			d.Access(i%blocks, 4096, false)
		}
	})
	rnd := p.repeat("disk.Access", parent, func() {
		for _, b := range random {
			d.Access(b, 4096, false)
		}
	})
	p.out.set("disk.ns_per_access.seq", seq/accesses, "ns")
	p.out.set("disk.ns_per_access.rand", rnd/accesses, "ns")
	p.tr.end(parent)

	parent = p.tr.begin("layer.netstack", -1, 0)
	tcp, err := netstack.NewTCP(linux)
	if err != nil {
		return err
	}
	udp, err := netstack.NewUDP(linux)
	if err != nil {
		return err
	}
	p.out.set("netstack.tcp_ms", p.repeat("netstack.TCP.Transfer", parent, func() { tcp.Transfer(8 << 20) })/1e6, "ms")
	p.out.set("netstack.udp_ms", p.repeat("netstack.UDP.Transfer", parent, func() { udp.Transfer(8<<20, 1024) })/1e6, "ms")
	p.tr.end(parent)

	parent = p.tr.begin("layer.nfs", -1, 0)
	for _, k := range []struct {
		name string
		kind bench.NFSServerKind
	}{{"linux", bench.ServerLinux}, {"sunos", bench.ServerSunOS}} {
		ns := p.repeat("bench.MABNFS", parent, func() { bench.MABNFS(linux, k.kind, bench.DefaultMAB(), seed) })
		p.out.set("nfs.mab_ms."+k.name, ns/1e6, "ms")
	}
	p.tr.end(parent)
	return nil
}

// scale times the scale-out NFS server model per completed simulated
// operation at 10^3 and 10^6 clients, and the construction of a 10^6
// client server.
func (p *prober) scale() error {
	parent := p.tr.begin("layer.nfsserver", -1, 0)
	defer p.tr.end(parent)
	linux := osprofile.Paper()[0]
	for _, c := range []struct {
		name    string
		clients int
	}{{"c1e3", 1_000}, {"c1e6", 1_000_000}} {
		var res *nfsserver.Result
		ms := p.once("core.ScaleRun", parent, func() { res = core.ScaleRun(p.cfg, linux, c.clients, 8, nil) })
		if res.Completed == 0 {
			return fmt.Errorf("nfsserver probe: %s completed no operations", c.name)
		}
		p.out.set("nfsserver.ns_per_op."+c.name, ms*1e6/float64(res.Completed), "ns")
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ms := p.once("nfsserver.New", parent, func() {
		nfsserver.New(nfsserver.Config{Profile: linux, Clients: 1_000_000, Nfsd: 8, Seed: p.o.seed})
	})
	runtime.ReadMemStats(&m1)
	p.out.set("nfsserver.new_ms.c1e6", ms, "ms")
	p.out.set("nfsserver.alloc_mb.c1e6", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, "MB")
	return nil
}

// sim times the timer wheel: events that reschedule themselves until a
// fixed count has fired, and schedule/cancel pairs.
func (p *prober) sim() error {
	parent := p.tr.begin("layer.sim", -1, 0)
	defer p.tr.end(parent)
	const events, pending = 200_000, 1_000
	rng := rand.New(rand.NewSource(int64(p.o.seed)))
	delays := make([]sim.Duration, 4096)
	for i := range delays {
		delays[i] = sim.Duration(1 + rng.Int63n(int64(10*sim.Millisecond)))
	}
	ns := p.repeat("sim.Wheel.Run", parent, func() {
		w := sim.NewWheel()
		fired := 0
		var tick func()
		tick = func() {
			fired++
			if fired+w.Pending() < events {
				w.Schedule(delays[fired%len(delays)], tick)
			}
		}
		for i := 0; i < pending; i++ {
			w.Schedule(delays[i%len(delays)], tick)
		}
		w.Run()
	})
	p.out.set("sim.ns_per_event", ns/events, "ns")
	const cancels = 100_000
	ns = p.repeat("sim.Wheel.Cancel", parent, func() {
		w := sim.NewWheel()
		noop := func() {}
		for i := 0; i < cancels; i++ {
			w.Cancel(w.Schedule(delays[i%len(delays)], noop))
		}
	})
	p.out.set("sim.ns_per_cancel", ns/cancels, "ns")
	return nil
}

// memoEntry mirrors the shape of a stored serve response.
type memoEntry struct {
	Body []byte `json:"body"`
	Type string `json:"type"`
	ETag string `json:"etag"`
	Code int    `json:"code"`
}

// memo writes the traced cycle's 60 response bodies to a fresh store,
// reads them back through a second handle (a restart), and times the
// in-process single-flight table on a hit.
func (p *prober) memo() error {
	parent := p.tr.begin("layer.memo", -1, 0)
	defer p.tr.end(parent)
	dir, err := os.MkdirTemp(p.o.work, "memo-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := memo.OpenStore(dir)
	if err != nil {
		return err
	}
	paths := servePaths()
	key := func(path string) []byte {
		k, _ := json.Marshal(map[string]any{"seed": p.o.seed, "endpoint": path})
		return k
	}
	var puts, gets []float64
	for _, path := range paths {
		body := p.serve.bodies[path]
		e := memoEntry{Body: body, Type: "text/plain", ETag: etagFor(digest(body)), Code: 200}
		var perr error
		puts = append(puts, p.once("memo.Store.Put", parent, func() { perr = st.Put(key(path), e) }))
		if perr != nil {
			return perr
		}
	}
	again, err := memo.OpenStore(dir)
	if err != nil {
		return err
	}
	for _, path := range paths {
		var e memoEntry
		var ok bool
		gets = append(gets, p.once("memo.Store.Get", parent, func() { ok = again.Get(key(path), &e) }))
		p.out.op("memo "+path, storeErr(ok, e, p.serve.bodies[path]))
	}
	ss := again.Stats()
	p.out.set("memo.put_ms", median(puts), "ms")
	p.out.set("memo.get_ms", median(gets), "ms")
	p.out.set("memo.store_hit_ratio", float64(ss.Hits)/float64(ss.Hits+ss.Misses), "ratio")
	p.out.set("memo.stale", float64(ss.Stale), "count")
	t := memo.NewTable[string, int]()
	t.Do("k", func() int { return 1 })
	const hits = 100_000
	ns := p.repeat("memo.Table.Do", parent, func() {
		for i := 0; i < hits; i++ {
			t.Do("k", func() int { return 1 })
		}
	})
	p.out.set("memo.table_hit_ns", ns/hits, "ns")
	return nil
}

// storeErr checks a store read returned the body that was written.
func storeErr(ok bool, e memoEntry, want []byte) error {
	if !ok {
		return fmt.Errorf("store miss")
	}
	if !bytes.Equal(e.Body, want) {
		return fmt.Errorf("store returned a different body")
	}
	return nil
}

// observe times core.Observe for every observable exhibit, then exports
// the captured processes as a Chrome trace, folds them into a profile,
// writes it as pprof, and runs the three audits.
func (p *prober) observe() error {
	parent := p.tr.begin("layer.observe", -1, 0)
	defer p.tr.end(parent)
	var procs []obs.Process
	spans := 0
	for _, id := range core.ObservableIDs() {
		var o *core.Observation
		var err error
		ms := p.once("core.Observe", parent, func() { o, err = core.Observe(p.cfg, id, core.ObserveOpts{}) })
		if err != nil {
			return err
		}
		p.out.set("core.observe_ms."+id, ms, "ms")
		for _, r := range o.Runs {
			procs = append(procs, r.Process)
			spans += len(r.Process.Events)
		}
	}
	p.out.set("obs.spans", float64(spans), "count")
	var err error
	p.out.set("obs.chrome_ms", p.once("obs.WriteChrome", parent, func() { err = obs.WriteChrome(io.Discard, procs) }), "ms")
	if err != nil {
		return err
	}
	var prof *profile.Profile
	p.out.set("profile.fold_ms", p.once("profile.Fold", parent, func() { prof = profile.Fold(procs...) }), "ms")
	p.out.set("profile.pprof_ms", p.once("profile.WritePprof", parent, func() { err = prof.WritePprof(io.Discard) }), "ms")
	if err != nil {
		return err
	}
	for _, id := range core.AuditableIDs() {
		var a *core.AuditObservation
		ms := p.once("core.Audit", parent, func() { a, err = core.Audit(p.cfg, id, core.ObserveOpts{}) })
		if err == nil && !a.OK() {
			err = fmt.Errorf("invariant violated")
		}
		p.out.op("audit "+id, err)
		p.out.set("audit.ms."+id, ms, "ms")
	}
	return nil
}

// serveKinds are the computed endpoint kinds of the path list.
var serveKinds = []string{"metrics", "trace", "profile", "timeseries", "exemplars", "audit"}

// serveLayer reports the traced serve cycle: cold time per endpoint
// kind, the phase figures, the warm tail and revalidation latency, and
// the bytes the warm phase moved.
func (p *prober) serveLayer() {
	c := p.serve
	for _, k := range serveKinds {
		p.out.set("serve.cold_ms."+k, c.coldMsByKind[k], "ms")
	}
	setPhaseMetrics(p.out, []cycle{*c}, "serve.")
	p.out.set("serve.warm_p99_ms", percentile(c.warmMs, 99), "ms")
	p.out.set("serve.revalidate_ms", median(c.revalidateMs), "ms")
	p.out.set("serve.bytes_mb", float64(c.warmBytes)/1e6, "MB")
}
