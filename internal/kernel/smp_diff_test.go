package kernel

// The seeded regression tests behind the BENCH_baseline safety claim.
// The kernel once had a second, uniprocessor engine that ran each
// process body on a goroutine and passed control over a channel; the op
// engine at NCPU=1 reproduced its accounting bit for bit. That engine is
// retired, and the values it produced — elapsed time, switch count, and
// the per-activity time split for every personality on the T-series
// probe shapes (the getpid loop, a yield round-robin, a compute +
// syscall + yield mix) — are pinned here, so the dispatch cost model
// (goodness scan width, constant-time pick, dispatch-table LRU) cannot
// drift. osprofile.All() order: Linux 1.2.8, FreeBSD 2.0.5R, Solaris 2.4,
// SunOS 4.1.4, Linux 1.3.40, FreeBSD 2.1, Solaris 2.5.

import (
	"testing"

	"repro/internal/osprofile"
	"repro/internal/sim"
)

// diffStats is the comparable accounting of one run.
type diffStats struct {
	elapsed  sim.Duration
	switches uint64
	dispatch sim.Duration
	syscall  sim.Duration
	user     sim.Duration
}

func statsOf(m *Machine) diffStats {
	return diffStats{
		elapsed:  m.Elapsed(),
		switches: m.Switches(),
		dispatch: m.PhaseTime(PhaseDispatch),
		syscall:  m.PhaseTime(PhaseSyscall),
		user:     m.PhaseTime(PhaseUser),
	}
}

// checkPinned runs build on a fresh uniprocessor per personality and
// compares against the pinned row.
func checkPinned(t *testing.T, shape string, pinned []diffStats, build func(m *Machine)) {
	t.Helper()
	profiles := osprofile.All()
	if len(profiles) != len(pinned) {
		t.Fatalf("%d personalities, %d pinned rows", len(profiles), len(pinned))
	}
	for i, p := range profiles {
		m := MustMachine(p, 1)
		build(m)
		m.Run()
		if got := statsOf(m); got != pinned[i] {
			t.Errorf("%s %s: %+v, pinned %+v", p, shape, got, pinned[i])
		}
	}
}

func TestSMPAtOneCPUMatchesUniprocessorGetpid(t *testing.T) {
	checkPinned(t, "getpid", []diffStats{
		{23135400, 1, 35400, 23100000, 0},
		{26258000, 1, 58000, 26200000, 0},
		{35455000, 1, 255000, 35200000, 0},
		{35455000, 1, 255000, 35200000, 0},
		{23107050, 1, 7050, 23100000, 0},
		{26258000, 1, 58000, 26200000, 0},
		{30180000, 1, 180000, 30000000, 0},
	}, func(m *Machine) {
		m.SpawnThread("getpid-loop", []Op{{Kind: OpSyscall}}, 10_000)
	})
}

func TestSMPAtOneCPUMatchesUniprocessorYieldRing(t *testing.T) {
	// 40 processes exercise the Solaris dispatch table past its 32
	// entries, so LRU miss charging is compared too; 5 processes cover
	// the small-ring shape of Figure 1.
	for _, shape := range []struct {
		nproc, laps int
		pinned      []diffStats
	}{
		{5, 40, []diffStats{
			{8391000, 205, 8391000, 0, 0},
			{11890000, 205, 11890000, 0, 0},
			{26275000, 205, 26275000, 0, 0},
			{26275000, 205, 26275000, 0, 0},
			{1485750, 205, 1485750, 0, 0},
			{11890000, 205, 11890000, 0, 0},
			{18900000, 205, 18900000, 0, 0},
		}},
		{40, 5, []diffStats{
			{20508000, 240, 20508000, 0, 0},
			{13920000, 240, 13920000, 0, 0},
			{61200000, 240, 61200000, 0, 0},
			{61200000, 240, 61200000, 0, 0},
			{2121000, 240, 2121000, 0, 0},
			{13920000, 240, 13920000, 0, 0},
			{43200000, 240, 43200000, 0, 0},
		}},
	} {
		checkPinned(t, "yield ring", shape.pinned, func(m *Machine) {
			for i := 0; i < shape.nproc; i++ {
				m.SpawnThread("yielder", []Op{{Kind: OpYield}}, shape.laps)
			}
		})
	}
}

// TestSMPAtOneCPUMatchesUniprocessorMixed runs a compute + syscall +
// yield mix, the closing test that the three charge classes land in the
// same columns.
func TestSMPAtOneCPUMatchesUniprocessorMixed(t *testing.T) {
	const laps, think = 200, 7 * sim.Microsecond
	checkPinned(t, "mixed", []diffStats{
		{28616400, 603, 23030400, 1386000, 4200000},
		{40746000, 603, 34974000, 1572000, 4200000},
		{82077000, 603, 75765000, 2112000, 4200000},
		{82077000, 603, 75765000, 2112000, 4200000},
		{9897300, 603, 4311300, 1386000, 4200000},
		{40746000, 603, 34974000, 1572000, 4200000},
		{60540000, 603, 54540000, 1800000, 4200000},
	}, func(m *Machine) {
		for i := 0; i < 3; i++ {
			m.SpawnThread("mixed", []Op{
				{Kind: OpThink, D: think},
				{Kind: OpSyscall},
				{Kind: OpYield},
			}, laps)
		}
	})
}
