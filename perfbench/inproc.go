package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// childReady is the argument that makes the binary a set-up probe: build
// the configuration, the registry and the workload's exhibit lookup,
// print "ready" and exit.
const childReady = "ready"

const (
	// minPasses is the fewest passes a run makes, however long they take.
	minPasses = 3
	// setupBatch is how many fresh set-up probes a run spawns before its
	// first pass and again after every pass, so that set-up time, like
	// the passes, is a median over the whole run and not over one moment
	// of it. A run of ten passes takes about 130 samples.
	setupBatch = 12
)

// memoryIDs are the §6 cache-hierarchy exhibits; every other exhibit
// belongs to the systems workload.
var memoryIDs = map[string]bool{
	"F2": true, "F3": true, "F4": true, "F5": true, "F6": true, "F7": true, "F8": true,
	"A1": true, "A2": true,
}

// exhibitsOf returns the workload's exhibits in presentation order.
func exhibitsOf(workload string) []*core.Experiment {
	var out []*core.Experiment
	for _, e := range core.All() {
		if memoryIDs[e.ID] == (workload == "memory") {
			out = append(out, e)
		}
	}
	return out
}

func configFor(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// readyChild is the set-up probe's body: exactly the in-process set-up
// the workload's timed passes start from.
func readyChild(args []string, w io.Writer) int {
	if len(args) != 2 {
		return 2
	}
	seed, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return 2
	}
	_ = configFor(seed)
	n := 0
	for _, e := range exhibitsOf(args[0]) {
		if _, ok := core.Lookup(e.ID); ok {
			n++
		}
	}
	fmt.Fprintln(w, "ready", n)
	return 0
}

// spawnUntil starts cmd and returns how long it took to print a stdout
// line starting with marker, the rest of that line, and the running
// command with the remainder of its stdout drained in the background.
func spawnUntil(cmd *exec.Cmd, marker string) (time.Duration, string, *child, error) {
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, "", nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// A child must not outlive the benchmark, even if it dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, "", nil, err
	}
	c := &child{cmd: cmd, stderr: &stderr, drained: make(chan struct{})}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	took := time.Since(start)
	go func() {
		defer close(c.drained)
		br.WriteTo(io.Discard)
	}()
	if err != nil || !strings.HasPrefix(line, marker) {
		c.kill()
		return 0, "", nil, fmt.Errorf("%s: no %q line (got %q, %v): %s", cmd.Path, marker, line, err, stderr.String())
	}
	return took, strings.TrimSpace(strings.TrimPrefix(line, marker)), c, nil
}

// child is a started process whose stdout is being drained.
type child struct {
	cmd     *exec.Cmd
	stderr  *bytes.Buffer
	drained chan struct{}
}

// wait reaps the child and returns its resource usage.
func (c *child) wait() (*syscall.Rusage, error) {
	<-c.drained
	err := c.cmd.Wait()
	ru, _ := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, fmt.Errorf("%s: no rusage", c.cmd.Path)
	}
	return ru, err
}

// kill stops the child at once and reaps it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.drained
	c.cmd.Wait()
}

// setupTimes spawns setupBatch fresh set-up probes and appends their
// exec-to-ready times, in seconds, to out.
func setupTimes(o options, out []float64) ([]float64, error) {
	for i := 0; i < setupBatch; i++ {
		cmd := exec.Command(o.self, childReady, o.workload, strconv.FormatUint(o.seed, 10))
		cmd.Env = childEnv()
		took, _, c, err := spawnUntil(cmd, "ready")
		if err != nil {
			return nil, err
		}
		if _, err := c.wait(); err != nil {
			return nil, err
		}
		out = append(out, took.Seconds())
	}
	return out, nil
}

// childEnv pins every child to the parallelism the benchmark states.
func childEnv() []string {
	return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
}

// pass is one timed RunAll + Render over a workload's exhibits.
type pass struct {
	wall, cpu time.Duration
	allocMB   float64
	stats     *core.RunStats
	results   []*core.Result
	renders   [][]byte
}

// runPass executes the exhibits serially (core.NewRunner(1)) and
// renders them, timing host wall, CPU and allocation. The heap is
// collected first, outside the timed span, so every pass starts from
// the heap a fresh process would.
func runPass(cfg core.Config, exps []*core.Experiment, tr *tracer, run int) pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	root := tr.begin("pass", -1, run)
	start := time.Now()
	var p pass
	tr.do("core.RunAll", root, run, func() { p.results, p.stats = core.NewRunner(1).RunAll(cfg, exps) })
	p.renders = make([][]byte, len(p.results))
	for i, r := range p.results {
		var b bytes.Buffer
		tr.do("report.Render", root, run, func() { report.Render(&b, r) })
		p.renders[i] = b.Bytes()
	}
	p.wall = time.Since(start)
	tr.end(root)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	return p
}

// gateExhibits checks every rendered exhibit of a pass.
func gateExhibits(out *outcome, g *gate, p pass) {
	for i, r := range p.results {
		out.op("exhibit "+r.ID, g.check("exhibit:"+r.ID, digest(p.renders[i])))
	}
}

// inprocWorkload is the memory or systems workload: set-up probes, then
// passes until --seconds have been measured, medians reported.
func inprocWorkload(o options) (*outcome, error) {
	exps := exhibitsOf(o.workload)
	cfg := configFor(o.seed)
	setups, err := setupTimes(o, nil)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	g := newGate(o.seed)
	var walls, cpus, allocs []float64
	var results []*core.Result
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		p := runPass(cfg, exps, nil, i)
		gateExhibits(out, g, p)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		allocs = append(allocs, p.allocMB)
		results = p.results
		fmt.Fprintf(o.out, "# pass %d: wall %.4f s  cpu %.4f s  alloc %.2f MB\n", i, p.wall.Seconds(), p.cpu.Seconds(), p.allocMB)
		if setups, err = setupTimes(o, setups); err != nil {
			return nil, err
		}
	}
	out.set("setup_s", median(setups), "s")
	out.set("wall_s", median(walls), "s")
	out.set("cpu_s", median(cpus), "s")
	out.set("alloc_mb", median(allocs), "MB")
	out.set("peak_rss_mb", selfPeakRSSMB(), "MB")
	writeTable(o.out, out.metrics)
	fmt.Fprintf(o.out, "# %d passes, %d set-up probes; paper_err_pct %s (mean |error| vs the paper over this workload's exhibits)\n",
		len(walls), len(setups), fmtPct(paperErrPct(results)))
	return out, nil
}

// paperErrPct is the mean |simulated - paper| / paper, in percent, over
// every paper-reported value whose series is a single sample (the
// tables); NaN when the exhibits report none.
func paperErrPct(results []*core.Result) float64 {
	var sum float64
	n := 0
	for _, r := range results {
		for _, e := range r.Expected {
			s := r.FindSeries(e.Label)
			if s == nil || len(s.Samples) != 1 || e.Mean == 0 {
				continue
			}
			sum += math.Abs(s.MeanAt(0)-e.Mean) / math.Abs(e.Mean) * 100
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func fmtPct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", v)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is this process's peak resident set (Linux reports KB).
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// writeTable prints metrics as "# name value unit" lines, sorted.
func writeTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
