package core

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestCapabilitySetsPinned pins the sets the experiment descriptors
// derive. They are public surface — the serve endpoint list and the
// /api/experiments body follow them — so widening or narrowing one is a
// deliberate change, never a side effect of registering a probe.
func TestCapabilitySetsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		got  []string
		want []string
	}{
		{"ObservableIDs", ObservableIDs(), []string{"T2", "T4", "T5", "T6", "T7", "F1", "F2", "F3", "F4",
			"F5", "F6", "F7", "F8", "F12", "F13", "S1", "S2"}},
		{"SampledIDs", SampledIDs(), []string{"F1", "F12", "S1", "S2"}},
		{"FaultableIDs", FaultableIDs(), []string{"T5", "T6", "T7", "F12", "F13", "S1", "S2"}},
		{"ExemplarIDs", ExemplarIDs(), []string{"S1", "S2"}},
		{"AuditableIDs", AuditableIDs(), []string{"S1", "S2", "L1"}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// With a window set, exactly the sampled probes return time series: the
// Sampled flag is what attaches the sampler, so the descriptor and the
// output cannot disagree.
func TestObserveSeriesExactlyForSampled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Profiles = cfg.Profiles[:1]
	sampled := SampledIDs()
	for _, id := range ObservableIDs() {
		o, err := Observe(cfg, id, ObserveOpts{Window: 10 * sim.Millisecond, Clients: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range o.Runs {
			if got, want := run.Series != nil, slices.Contains(sampled, id); got != want {
				t.Errorf("%s/%s: series present = %v, want %v", id, run.Label, got, want)
			}
		}
	}
}
