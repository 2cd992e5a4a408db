package cli

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// audit re-runs the NFS scale probes with the double-entry accounting
// attached and evaluates every queueing-law invariant (Little's law,
// utilization law, flow balance, histogram-vs-ledger and per-window
// conservation, exemplar phase sums). -format=text prints a verdict
// table with violations ranked worst-first; -format=json the full
// machine-readable reports. Exit is nonzero when any invariant fails,
// so the command doubles as a CI gate.
func (a *App) audit(cfg core.Config, ids []string, opts core.ObserveOpts, format string) int {
	ids, ok := a.capIDs("audit", ids, auditableSet, "%q is not auditable")
	if !ok {
		return 2
	}
	switch format {
	case "", "text", "json":
	default:
		fmt.Fprintf(a.Stderr, "pentiumbench: unknown audit format %q (want text or json)\n", format)
		return 2
	}
	var obsv []*core.AuditObservation
	for _, id := range ids {
		ao, err := core.Audit(cfg, id, opts)
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
		obsv = append(obsv, ao)
	}
	if format == "json" {
		enc := json.NewEncoder(a.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(obsv); err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 1
		}
		return exitFor(obsv)
	}
	a.auditText(obsv)
	return exitFor(obsv)
}

// exitFor maps the audit outcome onto the process exit code: 0 only
// when every personality of every experiment audited clean.
func exitFor(obsv []*core.AuditObservation) int {
	for _, ao := range obsv {
		if !ao.OK() {
			return 1
		}
	}
	return 0
}

// auditText renders the human-readable verdict: one summary row per
// personality, then any violations ranked worst-first with the concrete
// identity each one broke.
func (a *App) auditText(obsv []*core.AuditObservation) {
	systems, failed := 0, 0
	for oi, ao := range obsv {
		if oi > 0 {
			fmt.Fprintln(a.Stdout)
		}
		fmt.Fprintf(a.Stdout, "%s — %s: queueing-law audit\n", ao.ID, ao.Title)
		// The Report's Clients/Nfsd fields carry cpus/threads for the SMP
		// audit (one field shape for every consumer); label accordingly.
		c1, c2 := "clients", "nfsd"
		if ao.ID == "L1" {
			c1, c2 = "cpus", "threads"
		}
		fmt.Fprintf(a.Stdout, "  %-24s %9s %7s %8s %7s  %s\n",
			"system", c1, c2, "checks", "failed", "verdict")
		for _, rep := range ao.Reports {
			systems++
			verdict := "ok"
			if !rep.OK() {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(a.Stdout, "  %-24s %9d %7d %8d %7d  %s\n",
				rep.System, rep.Clients, rep.Nfsd, rep.Evaluated, rep.Failed, verdict)
		}
		for _, rep := range ao.Reports {
			if rep.OK() {
				continue
			}
			fmt.Fprintf(a.Stdout, "  %s violations (worst first):\n", rep.System)
			for _, v := range rep.Violations {
				where := "run"
				if v.Scope == "window" {
					where = fmt.Sprintf("window %d", v.Window)
				}
				fmt.Fprintf(a.Stdout, "    [%s] %s: %s (|err| %g, rel %.3g)\n",
					v.Invariant, where, v.Detail, v.AbsErr, v.RelErr)
			}
		}
	}
	fmt.Fprintln(a.Stdout)
	if failed == 0 {
		fmt.Fprintf(a.Stdout, "all invariants hold across %d audited runs.\n", systems)
		return
	}
	fmt.Fprintf(a.Stdout, "%d of %d audited runs violated at least one invariant.\n", failed, systems)
}
