package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/sim"
)

// AuditObservation is the product of one experiment's queueing-law
// audit: one verdict report per OS personality.
type AuditObservation struct {
	ID      string
	Title   string
	Reports []*audit.Report
}

// OK reports whether every personality audited clean.
func (a *AuditObservation) OK() bool {
	for _, r := range a.Reports {
		if !r.OK() {
			return false
		}
	}
	return true
}

// AuditableIDs returns the experiments the audit engine can evaluate:
// those whose descriptor carries an Audit.
func AuditableIDs() []string { return idsWhere(func(e *Experiment) bool { return e.Audit != nil }) }

// Audit re-runs one experiment's exhibited model per personality — the
// same construction and seeds the exhibit and its probe use, so the
// audited run is the exhibited run — and evaluates its invariants.
// Window defaults to 100 ms and ExemplarK to 4 when unset: an audit
// without windows or exemplars would skip most of its checks.
func Audit(cfg Config, id string, opts ObserveOpts) (*AuditObservation, error) {
	e, ok := Lookup(id)
	if !ok || e.Audit == nil {
		return nil, fmt.Errorf("core: no audit for %q (have %v)", id, AuditableIDs())
	}
	opts = opts.withDefaults()
	if opts.Window <= 0 {
		opts.Window = 100 * sim.Millisecond
	}
	if opts.ExemplarK <= 0 {
		opts.ExemplarK = 4
	}
	env := probeEnv{cfg: cfg, opts: opts, e: e}
	out := &AuditObservation{ID: id, Title: e.Title}
	for _, p := range profilesOf(cfg) {
		out.Reports = append(out.Reports, e.Audit(env, p)...)
	}
	return out, nil
}
