package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
)

// childServe is the argument that makes the binary a pentiumbench
// server: the rest of the command line goes to cli.App.Execute, exactly
// as cmd/pentiumbench passes it. The wrapper adds one thing the real
// binary lacks: on SIGTERM it prints the Go heap's cumulative
// allocation and its own peak resident set, and exits. The peak is read
// from /proc/self/status (VmHWM) rather than from wait4, whose maxrss
// also counts the parent's resident set at the time of the fork.
const childServe = "pentiumbench"

// restarts is how many servers the restart phase starts, one after
// another, on the filled store, and warmRounds how many seeded
// permutations of the path list the warm phase replays. Both are sized
// so that each phase is a resolvable share of a cycle (see NOTES.md):
// one restart takes about 0.6 s and one warm round (60 requests, half
// of them revalidations) about 18 ms.
const (
	restarts   = 4
	warmRounds = 130
)

// minCycles is the fewest cold/restart/warm cycles a serve run makes.
const minCycles = 3

func serveChild(args []string) int {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	go func() {
		<-sig
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(os.Stderr, "alloc_bytes %d\npeak_rss_kb %d\n", ms.TotalAlloc, peakRSSKB())
		os.Exit(0)
	}()
	return cli.NewApp(os.Stdout, os.Stderr).Execute(args)
}

// servePaths is the 60-path list every phase requests: the experiment
// index; metrics, trace and profile of every observable exhibit;
// time series of F1, F12, S1 and S2; exemplars and audits of S1 and S2.
func servePaths() []string {
	paths := []string{"/api/experiments"}
	for _, id := range core.ObservableIDs() {
		paths = append(paths, "/api/metrics/"+id, "/api/trace/"+id, "/api/profile/"+id)
	}
	for _, id := range []string{"F1", "F12", "S1", "S2"} {
		paths = append(paths, "/api/timeseries/"+id)
	}
	for _, id := range []string{"S1", "S2"} {
		paths = append(paths, "/api/exemplars/"+id, "/api/audit/"+id)
	}
	return paths
}

// endpointKind is the endpoint a path belongs to ("metrics", "trace", ...).
func endpointKind(path string) string {
	kind, _, _ := strings.Cut(strings.TrimPrefix(path, "/api/"), "/")
	return kind
}

// server is a running pentiumbench serve child.
type server struct {
	c    *child
	base string
	done bool
}

// startServer execs a server on dir and returns it with the time from
// exec to its "serving on" line.
func startServer(o options, dir string) (*server, time.Duration, error) {
	cmd := exec.Command(o.self, childServe, "-j", "1", "-seed", strconv.FormatUint(o.seed, 10),
		"-memo", dir, "-addr", "127.0.0.1:0", "serve")
	cmd.Env = childEnv()
	took, base, c, err := spawnUntil(cmd, "serving on ")
	if err != nil {
		return nil, 0, err
	}
	return &server{c: c, base: base}, took, nil
}

// stop sends SIGTERM, reaps the server, and returns its CPU time, peak
// RSS and cumulative allocation.
func (s *server) stop() (cpu time.Duration, rssMB, allocMB float64, err error) {
	s.done = true
	if err := s.c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.c.kill()
		return 0, 0, 0, err
	}
	ru, err := s.c.wait()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("server exit: %v: %s", err, s.c.stderr.String())
	}
	alloc, okA := reportedCount(s.c.stderr.String(), "alloc_bytes ")
	rssKB, okR := reportedCount(s.c.stderr.String(), "peak_rss_kb ")
	if !okA || !okR || rssKB == 0 {
		return 0, 0, 0, fmt.Errorf("server printed no allocation or peak RSS: %s", s.c.stderr.String())
	}
	return rusageCPU(ru), float64(rssKB) / 1024, float64(alloc) / 1e6, nil
}

// reportedCount finds the line "<prefix><n>" in text and returns n.
func reportedCount(text, prefix string) (uint64, bool) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// peakRSSKB is this process's peak resident set in KB (VmHWM), or 0 if
// /proc/self/status cannot be read.
func peakRSSKB() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return n
		}
	}
	return 0
}

// release kills the server if it is still running (error paths).
func (s *server) release() {
	if s != nil && !s.done {
		s.done = true
		s.c.kill()
	}
}

// request is one GET; a non-empty ifNoneMatch makes it a revalidation.
type request struct {
	path        string
	ifNoneMatch string
}

// reply is one completed (or failed) exchange. sum is the SHA-256 of
// the body and size its length. The body itself is kept only when it
// has no reference to match (see closedLoop), so a long warm phase
// holds no bodies.
type reply struct {
	request
	status     int
	etag       string
	sum        string
	size       int
	body       []byte
	start, end time.Time
	err        error
}

// refBody is a body already checked against the recorded digest.
type refBody struct {
	body []byte
	sum  string
}

// closedLoop sends reqs over conns connections, each sending its next
// request only when the previous reply has been read in full: the
// model of scripts and dashboards that wait for an answer. Replies are
// returned in request order. A body equal to its path's entry in refs
// takes that entry's digest, a memory compare instead of a SHA-256 of
// every warm body; any other body is hashed and kept.
func closedLoop(base string, reqs []request, conns int, refs map[string]refBody) []reply {
	replies := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				replies[i] = get(client, base, reqs[i], refs)
			}
		}()
	}
	wg.Wait()
	return replies
}

// get makes one exchange; its latency ends when the body has been read,
// before the body is checked.
func get(client *http.Client, base string, req request, refs map[string]refBody) reply {
	r := reply{request: req, start: time.Now()}
	hreq, err := http.NewRequest(http.MethodGet, base+req.path, nil)
	if err != nil {
		r.err, r.end = err, time.Now()
		return r
	}
	if req.ifNoneMatch != "" {
		hreq.Header.Set("If-None-Match", req.ifNoneMatch)
	}
	resp, err := client.Do(hreq)
	if err != nil {
		r.err, r.end = err, time.Now()
		return r
	}
	defer resp.Body.Close()
	r.status, r.etag = resp.StatusCode, resp.Header.Get("ETag")
	body, err := io.ReadAll(resp.Body)
	r.err, r.end, r.size = err, time.Now(), len(body)
	if ref, ok := refs[req.path]; ok && bytes.Equal(body, ref.body) {
		r.sum = ref.sum
	} else {
		r.sum, r.body = digest(body), body
	}
	return r
}

// cycle is one cold/restart/warm round against fresh servers.
type cycle struct {
	coldS, restartS, warmS float64
	cpuS, rssMB, allocMB   float64
	warmReqs               int
	warmMs, revalidateMs   []float64
	warmBytes              int64
	coldMsByKind           map[string]float64
	bodies                 map[string][]byte
}

func (c cycle) wallS() float64 { return c.coldS + c.restartS + c.warmS }

// serveCycle runs one cycle:
//
//   - cold: a fresh server on an empty store; one connection requests
//     every path once, so each is computed and written to the store;
//   - restart: `restarts` new servers, one after another, on the filled
//     store; each answers the same list from store reads (timed from
//     the first exec, the stops between them included);
//   - warm: two connections replay the list in seeded order, every
//     other request revalidating with If-None-Match.
//
// Every reply goes through the gate.
func serveCycle(o options, g *gate, out *outcome, rng *rand.Rand, tr *tracer, run int) (cycle, error) {
	c := cycle{coldMsByKind: map[string]float64{}, bodies: map[string][]byte{}}
	dir, err := os.MkdirTemp(o.work, "memo-")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	paths := servePaths()
	plain := make([]request, len(paths))
	for i, p := range paths {
		plain[i] = request{path: p}
	}
	record := func(phase int, rs []reply) {
		for _, r := range rs {
			out.op(r.path, g.checkReply(r))
			tr.add("serve."+endpointKind(r.path), phase, run, r.start, r.end)
		}
	}

	// stop ends a phase's server and adds its cost to the cycle's.
	stop := func(s *server) error {
		cpu, rss, alloc, err := s.stop()
		c.cpuS += cpu.Seconds()
		c.rssMB = max(c.rssMB, rss)
		c.allocMB += alloc
		return err
	}

	s, _, err := startServer(o, dir)
	if err != nil {
		return c, err
	}
	defer s.release()
	phase := tr.begin("serve.cold", -1, run)
	start := time.Now()
	rs := closedLoop(s.base, plain, 1, nil)
	c.coldS = time.Since(start).Seconds()
	tr.end(phase)
	record(phase, rs)
	refs := map[string]refBody{}
	for _, r := range rs {
		c.coldMsByKind[endpointKind(r.path)] += float64(r.end.Sub(r.start)) / 1e6
		c.bodies[r.path] = r.body
		if want, ok := g.reference(r.path); ok && want == r.sum {
			refs[r.path] = refBody{r.body, r.sum}
		}
	}
	if err := stop(s); err != nil {
		return c, err
	}

	// Each restart is a new server on the filled store; the last one
	// stays up for the warm phase.
	phase = tr.begin("serve.restart", -1, run)
	start = time.Now()
	for i := 0; i < restarts; i++ {
		if i > 0 {
			if err := stop(s); err != nil {
				return c, err
			}
		}
		if s, _, err = startServer(o, dir); err != nil {
			return c, err
		}
		defer s.release()
		rs = closedLoop(s.base, plain, 1, refs)
		record(phase, rs)
	}
	c.restartS = time.Since(start).Seconds()
	tr.end(phase)

	var warm []request
	for round := 0; round < warmRounds; round++ {
		for _, i := range rng.Perm(len(paths)) {
			req := request{path: paths[i]}
			if ref, ok := g.reference(req.path); ok && len(warm)%2 == 1 {
				req.ifNoneMatch = etagFor(ref)
			}
			warm = append(warm, req)
		}
	}
	phase = tr.begin("serve.warm", -1, run)
	start = time.Now()
	rs = closedLoop(s.base, warm, 2, refs)
	c.warmS = time.Since(start).Seconds()
	tr.end(phase)
	record(phase, rs)
	c.warmReqs = len(rs)
	for _, r := range rs {
		ms := float64(r.end.Sub(r.start)) / 1e6
		c.warmMs = append(c.warmMs, ms)
		if r.ifNoneMatch != "" {
			c.revalidateMs = append(c.revalidateMs, ms)
		}
		c.warmBytes += int64(r.size)
	}
	if err := stop(s); err != nil {
		return c, err
	}
	return c, nil
}

// serveSetupTimes execs setupBatch servers on the empty store dir and
// appends their exec-to-"serving on" times, in seconds, to out.
func serveSetupTimes(o options, dir string, out []float64) ([]float64, error) {
	for i := 0; i < setupBatch; i++ {
		s, took, err := startServer(o, dir)
		if err != nil {
			return nil, err
		}
		if _, _, _, err := s.stop(); err != nil {
			return nil, err
		}
		out = append(out, took.Seconds())
	}
	return out, nil
}

// serveWorkload is the serve workload: set-up probes, then cycles until
// --seconds have been measured, medians reported.
func serveWorkload(o options) (*outcome, error) {
	setupDir, err := os.MkdirTemp(o.work, "setup-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(setupDir)
	setups, err := serveSetupTimes(o, setupDir, nil)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	g := newGate(o.seed)
	rng := rand.New(rand.NewSource(int64(o.seed)))
	var cycles []cycle
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; i < minCycles || time.Now().Before(deadline); i++ {
		c, err := serveCycle(o, g, out, rng, nil, i)
		if err != nil {
			return nil, err
		}
		c.bodies = nil // only the traced run's probes read them
		cycles = append(cycles, c)
		fmt.Fprintf(o.out, "# cycle %d: cold %.4f s  restart %.4f s  warm %.4f s (%d req)  cpu %.4f s  alloc %.2f MB\n",
			i, c.coldS, c.restartS, c.warmS, c.warmReqs, c.cpuS, c.allocMB)
		if setups, err = serveSetupTimes(o, setupDir, setups); err != nil {
			return nil, err
		}
	}
	field := func(f func(cycle) float64) float64 {
		var xs []float64
		for _, c := range cycles {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	out.set("setup_s", median(setups), "s")
	out.set("wall_s", field(cycle.wallS), "s")
	out.set("cpu_s", field(func(c cycle) float64 { return c.cpuS }), "s")
	out.set("peak_rss_mb", field(func(c cycle) float64 { return c.rssMB }), "MB")
	out.set("alloc_mb", field(func(c cycle) float64 { return c.allocMB }), "MB")
	writeTable(o.out, out.metrics)
	phases := newOutcome()
	setPhaseMetrics(phases, cycles, "")
	writeTable(o.out, phases.metrics)
	return out, nil
}

// setPhaseMetrics sets the serve phase metrics, medians over cycles.
func setPhaseMetrics(out *outcome, cycles []cycle, prefix string) {
	var cold, restart, rps, p50 []float64
	for _, c := range cycles {
		cold = append(cold, c.coldS)
		restart = append(restart, c.restartS)
		rps = append(rps, float64(c.warmReqs)/c.warmS)
		p50 = append(p50, median(c.warmMs))
	}
	out.set(prefix+"cold_s", median(cold), "s")
	out.set(prefix+"restart_s", median(restart), "s")
	out.set(prefix+"warm_rps", median(rps), "1/s")
	out.set(prefix+"warm_p50_ms", median(p50), "ms")
}
