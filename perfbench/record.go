package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// recordDigests runs every exhibit and one serve cold phase at o.seed
// and prints their digests as a digests.go map entry.
func recordDigests(o options, stdout, stderr io.Writer) int {
	delete(recorded, o.seed)
	g := newGate(o.seed)
	out := newOutcome()
	cfg := configFor(o.seed)
	for _, w := range []string{"memory", "systems"} {
		gateExhibits(out, g, runPass(cfg, exhibitsOf(w), nil, 0))
	}
	if _, err := serveCycle(o, g, out, rand.New(rand.NewSource(int64(o.seed))), nil, 0); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(out.failures) > 0 {
		fmt.Fprintln(stderr, "perfbench: outputs did not repeat:", out.failures)
		return 1
	}
	names := make([]string, 0, len(g.want))
	for n := range g.want {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "\t%d: {\n", o.seed)
	for _, n := range names {
		fmt.Fprintf(stdout, "\t\t%q: %q,\n", n, g.want[n])
	}
	fmt.Fprintln(stdout, "\t},")
	return 0
}
