package cli

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
)

// profileCmd implements `pentiumbench profile <ids|all>`: run the
// observability probes, fold their span streams into the merged exact
// virtual-time profile (already folded by the runner, per run, in the
// parallel tasks) and export it. The export bytes are identical at every
// -j: per-run folds merge in input order and the sample order is
// canonical, so the worker count can never leak into the output.
func (a *App) profileCmd(cfg core.Config, runner *core.Runner, ids []string,
	opts core.ObserveOpts, format string, top int, outPath string) int {
	ids, ok := a.capIDs("profile", ids, observableSet, "")
	if !ok {
		return 2
	}
	suite, code := a.observeSuite(cfg, runner, ids, opts)
	if suite == nil {
		return code
	}
	var w io.Writer = a.Stdout
	if outPath != "" {
		f, err := a.CreateFile(outPath)
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	var err error
	switch format {
	case "top", "":
		err = suite.Profile.WriteTop(w, top)
	case "folded":
		err = suite.Profile.WriteFolded(w)
	case "pprof":
		err = suite.Profile.WritePprof(w)
	default:
		fmt.Fprintf(a.Stderr, "pentiumbench: unknown profile format %q (want top, folded or pprof)\n", format)
		return 2
	}
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	if outPath != "" {
		fmt.Fprintln(a.Stdout, "wrote", outPath)
	}
	return 0
}

// baseline implements `pentiumbench baseline record|check|diff`, the
// metric regression harness (DESIGN.md §10).
func (a *App) baseline(cfg core.Config, runner *core.Runner, args []string,
	opts core.ObserveOpts, path string, tol float64) int {
	if len(args) == 0 {
		fmt.Fprintln(a.Stderr, "pentiumbench: baseline needs a verb: record [ids|all], check, or diff <a.json> <b.json>")
		return 2
	}
	switch args[0] {
	case "record":
		return a.baselineRecord(cfg, runner, args[1:], opts, path)
	case "check":
		return a.baselineCheck(cfg, runner, opts, path, tol)
	case "diff":
		return a.baselineDiff(args[1:], tol)
	default:
		fmt.Fprintf(a.Stderr, "pentiumbench: unknown baseline verb %q (want record, check or diff)\n", args[0])
		return 2
	}
}

// baselineRecord captures the canonical metrics snapshot of the given
// probes (default: every observable experiment) and writes the baseline
// file. The capture is a pure function of (ids, seed), so a re-record
// without model changes is byte-identical.
func (a *App) baselineRecord(cfg core.Config, runner *core.Runner, ids []string,
	opts core.ObserveOpts, path string) int {
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = core.ObservableIDs()
	}
	suite, code := a.observeSuite(cfg, runner, ids, opts)
	if suite == nil {
		return code
	}
	f := baseline.FromSuite(ids, cfg.Seed, suite)
	data, err := f.Marshal()
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	out, err := a.CreateFile(path)
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	if _, err := out.Write(data); err != nil {
		out.Close()
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	if err := out.Close(); err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	fmt.Fprintf(a.Stdout, "wrote %s: %d experiments, %d metric points (seed %d)\n",
		path, len(f.Experiments), f.MetricCount(), f.Seed)
	return 0
}

// baselineCheck loads the baseline, re-runs the recorded probes with the
// recorded seed — the gate is self-contained; command-line -seed does not
// leak in — and diffs the fresh capture against the file. Exit 0 on a
// clean pass; exit 1 with the ranked regression table on any violation.
func (a *App) baselineCheck(cfg core.Config, runner *core.Runner,
	opts core.ObserveOpts, path string, tol float64) int {
	data, err := a.ReadFile(path)
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 2
	}
	base, err := baseline.Load(data)
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 2
	}
	cfg.Seed = base.Seed
	suite, code := a.observeSuite(cfg, runner, base.IDs, opts)
	if suite == nil {
		return code
	}
	cur := baseline.FromSuite(base.IDs, cfg.Seed, suite)
	res := baseline.Compare(base, cur, tol)
	if res.OK() {
		fmt.Fprintf(a.Stdout, "baseline check: %d metric points match %s (seed %d)\n",
			res.Compared, path, base.Seed)
		return 0
	}
	fmt.Fprintf(a.Stdout, "baseline check: %d of %d metric points regressed against %s\n\n",
		len(res.Violations), res.Compared, path)
	res.WriteTable(a.Stdout)
	fmt.Fprintf(a.Stderr, "pentiumbench: baseline check failed (%d violations); intended? re-record with 'baseline record'\n",
		len(res.Violations))
	return 1
}

// baselineDiff compares two recorded baseline files without running
// anything. Exit 0 when they agree, 1 (with the ranked table) when not —
// diff(1) semantics.
func (a *App) baselineDiff(args []string, tol float64) int {
	if len(args) != 2 {
		fmt.Fprintln(a.Stderr, "pentiumbench: baseline diff needs two baseline files")
		return 2
	}
	files := make([]*baseline.File, 2)
	for i, path := range args {
		data, err := a.ReadFile(path)
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
		if files[i], err = baseline.Load(data); err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
	}
	res := baseline.Compare(files[0], files[1], tol)
	if res.OK() {
		fmt.Fprintf(a.Stdout, "baselines agree: %d metric points compared\n", res.Compared)
		return 0
	}
	fmt.Fprintf(a.Stdout, "baselines differ in %d of %d metric points\n\n",
		len(res.Violations), res.Compared)
	res.WriteTable(a.Stdout)
	return 1
}
