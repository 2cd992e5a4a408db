package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadySeeds are the seeds the steadiness report alternates between:
// the two with recorded digests, so every run is checked against them.
var steadySeeds = []uint64{1, 5}

// steadiness runs n interleaved pairs of runs (set A, set B) of every
// workload, pair i on steadySeeds[i%2] with the first set alternating,
// and prints per end-to-end metric each set's median and quartiles, its
// spread (IQR / median), the gap between the two medians (in either
// direction, as a share of the smaller), and whether spread and gap are
// inside the metric's bound from BENCHMARK.json. Every run is reported;
// none is discarded.
func steadiness(self string, n, seconds int, stdout, stderr io.Writer) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	// values[workload][set][metric] lists one value per run.
	values := map[string][2]map[string][]float64{}
	ok := true
	for _, w := range workloads {
		values[w] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				seed := steadySeeds[i%len(steadySeeds)]
				res, err := runChild(self, w, seed, seconds)
				if err != nil {
					fmt.Fprintln(stderr, "perfbench:", err)
					return 1
				}
				fmt.Fprintf(stdout, "# pair %d %-7s set %c seed %d: wall_s %.4f failed %d/%d\n",
					i, w, 'A'+set, seed, res.Metrics["wall_s"].Value, res.Failed, res.Attempted)
				if res.Failed > 0 {
					ok = false
				}
				for name, m := range res.Metrics {
					values[w][set][name] = append(values[w][set][name], m.Value)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%-8s %-12s %-30s %-30s %8s %8s %8s %7s %s\n",
		"workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "spreadA", "spreadB", "gap", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := values[w][0][m.Name], values[w][1][m.Name]
			ma, mb := median(a), median(b)
			gap := math.Abs(mb-ma) / math.Min(ma, mb)
			sa, sb := relIQR(a), relIQR(b)
			verdict := "ok"
			switch {
			case gap > m.Bound:
				verdict = "GAP OUTSIDE BOUND"
			case math.Max(sa, sb) > m.Bound:
				verdict = "SPREAD OUTSIDE BOUND"
			case math.Max(sa, sb) > m.Bound/3:
				verdict = "ok (spread above bound/3)"
			}
			if strings.HasSuffix(verdict, "BOUND") {
				ok = false
			}
			fmt.Fprintf(stdout, "%-8s %-12s %-30s %-30s %7.2f%% %7.2f%% %7.2f%% %6.0f%% %s\n",
				w, m.Name, quart(a), quart(b), sa*100, sb*100, gap*100, m.Bound*100, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func quart(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", median(xs), q1, q3)
}

// runChild runs one untraced benchmark run in a fresh process and
// parses its result line.
func runChild(self, workload string, seed uint64, seconds int) (result, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %v: %s", workload, seed, err, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %v", workload, seed, err)
	}
	return res, nil
}
