package cli

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// timeseries runs the sampled observability probes and emits their
// virtual-time series: -format=csv (default) a long-format table,
// -format=json the full snapshots (windowed histogram quantiles
// included), -format=svg one small-multiple timeline figure per
// experiment into -out. The output is deterministic: virtual-time
// windows, per-run samplers, input-order merging — byte-identical at
// any -j.
func (a *App) timeseries(cfg core.Config, runner *core.Runner, ids []string,
	opts core.ObserveOpts, format, outDir string) int {
	ids, ok := a.capIDs("timeseries", ids, sampledSet, "%q has no time-series instrumentation")
	if !ok {
		return 2
	}
	if opts.Window <= 0 {
		fmt.Fprintln(a.Stderr, "pentiumbench: -window must be a positive duration")
		return 2
	}
	suite, code := a.observeSuite(cfg, runner, ids, opts)
	if suite == nil {
		return code
	}
	switch format {
	case "csv", "":
		a.timeseriesCSV(suite)
	case "json":
		return a.timeseriesJSON(suite)
	case "svg":
		return a.timeseriesSVG(suite, outDir)
	default:
		fmt.Fprintf(a.Stderr, "pentiumbench: unknown timeseries format %q (want csv, json or svg)\n", format)
		return 2
	}
	return 0
}

// timeseriesCSV emits the long format: one row per (experiment, system,
// series, window), t_ns the window's virtual start time.
func (a *App) timeseriesCSV(suite *core.SuiteObservation) {
	fmt.Fprintln(a.Stdout, "experiment,system,series,t_ns,value")
	for _, o := range suite.Observations {
		for _, run := range o.Runs {
			if run.Series == nil {
				continue
			}
			for _, s := range run.Series.Flatten() {
				for w, v := range s.Values {
					fmt.Fprintf(a.Stdout, "%s,%s,%s,%d,%d\n",
						o.ID, run.Label, s.Name, int64(w)*run.Series.WidthNs, v)
				}
			}
		}
	}
}

// timeseriesJSON emits one object per sampled run, with the full
// snapshot (counters, gauges, windowed histogram summaries).
func (a *App) timeseriesJSON(suite *core.SuiteObservation) int {
	body, err := seriesJSON(suite)
	if err == nil {
		_, err = a.Stdout.Write(body)
	}
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	return 0
}

// seriesJSON renders a suite's sampled runs as the indented JSON array
// the timeseries command and the serve endpoint share.
func seriesJSON(suite *core.SuiteObservation) ([]byte, error) {
	type runSeries struct {
		Experiment string          `json:"experiment"`
		System     string          `json:"system"`
		Series     *obs.TimeSeries `json:"series"`
	}
	out := []runSeries{}
	for _, o := range suite.Observations {
		for _, run := range o.Runs {
			if run.Series != nil {
				out = append(out, runSeries{o.ID, run.Label, run.Series})
			}
		}
	}
	body, err := json.MarshalIndent(out, "", "  ")
	return append(body, '\n'), err
}

// timeseriesSVG writes one timeline figure per experiment into dir.
func (a *App) timeseriesSVG(suite *core.SuiteObservation, dir string) int {
	if err := a.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	for _, o := range suite.Observations {
		var runs []report.TimelineRun
		for _, run := range o.Runs {
			if run.Series == nil {
				continue
			}
			flat := run.Series.Flatten()
			runs = append(runs, report.TimelineRun{
				Label:    run.Label,
				WidthNs:  run.Series.WidthNs,
				Series:   flat,
				Overload: overloadWindows(flat),
			})
		}
		path := fmt.Sprintf("%s/timeline-%s.svg", dir, o.ID)
		f, err := a.CreateFile(path)
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 1
		}
		report.Timeline(f, o.ID, o.Title, runs)
		f.Close()
		fmt.Fprintln(a.Stdout, "wrote", path)
	}
	return 0
}

// overloadWindows marks the windows where the NFS server was saturated:
// queue drops (the queue was at capacity when a request landed) or
// sheds. Runs without those series — the kernel probes — mark nothing.
func overloadWindows(flat []obs.FlatSeries) []bool {
	var out []bool
	for _, s := range flat {
		if s.Name != "nfs.queue_drops" && s.Name != "nfs.shed" {
			continue
		}
		if len(s.Values) > len(out) {
			grown := make([]bool, len(s.Values))
			copy(grown, out)
			out = grown
		}
		for i, v := range s.Values {
			if v > 0 {
				out[i] = true
			}
		}
	}
	return out
}
