// Command perfbench is pentiumbench's host-cost benchmark. It times the
// simulator itself — not the simulated systems — on three workloads:
//
//	memory   the §6 cache-hierarchy exhibits (F2-F8, A1, A2), in-process
//	systems  the other 24 exhibits (kernel, fs, network, NFS, SMP), in-process
//	serve    a pentiumbench server child driven over HTTP: cold, restart, warm
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload memory --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --steady 5 --seconds 30
//	bash perfbench/run.sh --record --seed 1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the per-layer ones, timed from outside each layer. See
// NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates one run's operations, failures and metrics.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// op counts one operation and records its failure, if any, by name.
func (o *outcome) op(name string, err error) {
	o.attempted++
	if err != nil {
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// self is this binary, re-executed for setup probes and server
	// children; work is a scratch directory inside the checkout.
	self, work string
	out        io.Writer
}

var workloads = []string{"memory", "systems", "serve"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case childServe:
			return serveChild(args[1:])
		case childReady:
			return readyChild(args[1:], stdout)
		}
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wl := fl.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fl.Uint64("seed", 1, "workload seed (pentiumbench -seed and the request order)")
	seconds := fl.Int("seconds", 30, "how long one run measures")
	traceMode := fl.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	steady := fl.Int("steady", 0, "steadiness report: run this many interleaved pairs of every workload")
	record := fl.Bool("record", false, "print the output digests of --seed as Go source for digests.go")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *seconds < 1 || *traceMode < 0 || *traceMode > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		return steadiness(self, *steady, *seconds, stdout, stderr)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	work, _ = filepath.Abs(work)
	o := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *traceMode == 1,
		self: self, work: work, out: stdout}
	if *record {
		return recordDigests(o, stdout, stderr)
	}

	runRecord(stdout, "start", o.seed)
	if _, ok := recorded[o.seed]; !ok {
		fmt.Fprintf(stdout, "# gate: no digests recorded for seed %d; each output is checked against its first occurrence in this run\n", o.seed)
	}
	var out *outcome
	switch {
	case !contains(workloads, o.workload):
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloads, ", "))
		return 2
	case o.trace:
		out, err = traced(o)
	case o.workload == "serve":
		out, err = serveWorkload(o)
	default:
		out, err = inprocWorkload(o)
	}
	runRecord(stdout, "end", o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "# FAILED", f)
	}
	res := result{Correct: len(out.failures) == 0, Attempted: out.attempted,
		Failed: len(out.failures), Metrics: out.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runRecord prints what explains a noisy run: the parallelism, the
// toolchain, the seed and the host's load.
func runRecord(w io.Writer, when string, seed uint64) {
	load, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		load = []byte("unavailable")
	}
	fmt.Fprintf(w, "# run %s: GOMAXPROCS=%d nproc=%d go=%s seed=%d loadavg=%s time=%s\n",
		when, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), seed,
		strings.TrimSpace(string(load)), time.Now().UTC().Format(time.RFC3339))
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
