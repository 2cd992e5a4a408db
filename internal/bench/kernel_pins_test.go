package bench

import (
	"testing"

	"repro/internal/osprofile"
	"repro/internal/sim"
)

// TestKernelProgramsPinned pins every kernel benchmark program's result
// for every personality. The values were recorded from the
// goroutine-per-process kernel engine these programs ran on before they
// became op programs; an old-versus-new differential over the same
// programs (ring and LIFO ctx at 2, 3, 8, 33, 40 and 512 processes,
// observed and sampled variants included, both pipe wake rules) matched
// bit for bit, and this table keeps that guarantee. The ctx columns are
// 2, 8, 33, 40 and 512 processes: past Solaris' 32-entry dispatch table,
// and Linux's goodness scan at Figure 1's widest point.
func TestKernelProgramsPinned(t *testing.T) {
	pinned := []struct {
		getpid            sim.Duration
		bwPipe            float64
		ipc64, ipc64K     sim.Duration
		ring, lifo        [5]sim.Duration
		selfPipe, latPipe sim.Duration
		fork, forkExec    sim.Duration
	}{
		{2310, 120.95132947136103, 232143880, 69338920,
			[5]sim.Duration{54861, 63260, 98097, 107781, 677440}, [5]sim.Duration{54861, 63260, 98096, 107780, 677262},
			10062, 109714, 1900000, 6100000}, // Linux 1.2.8
		{2620, 97.78605477021011, 265834976, 85766880,
			[5]sim.Duration{79103, 79102, 79051, 79026, 76608}, [5]sim.Duration{79103, 79102, 79050, 79025, 76604},
			11104, 158198, 4000000, 14000000}, // FreeBSD 2.0.5R
		{3520, 65.73345714274521, 1432806000, 127846000,
			[5]sim.Duration{220084, 220098, 350002, 349965, 346339}, [5]sim.Duration{220084, 220098, 224734, 247438, 340417},
			80082, 440279, 12000000, 60000000}, // Solaris 2.4
		{3520, 65.73345714274521, 1432806000, 127846000,
			[5]sim.Duration{220084, 220098, 350002, 349965, 346339}, [5]sim.Duration{220084, 220098, 224734, 247438, 340417},
			80082, 440279, 12000000, 60000000}, // SunOS 4.1.4
		{2310, 154.9158286111715, 216938830, 54133870,
			[5]sim.Duration{25161, 25460, 26665, 26991, 45472}, [5]sim.Duration{25161, 25460, 26665, 26991, 45462},
			10062, 50315, 1900000, 6100000}, // Linux 1.3.40 (development)
		{2620, 97.78605477021011, 265834976, 85766880,
			[5]sim.Duration{79103, 79102, 79051, 79026, 76608}, [5]sim.Duration{79103, 79102, 79050, 79025, 76604},
			11104, 158198, 4000000, 14000000}, // FreeBSD 2.1 (anticipated)
		{3000, 71.7420211173771, 1030550000, 117078000,
			[5]sim.Duration{161083, 161092, 251002, 250965, 247339}, [5]sim.Duration{161083, 161092, 164278, 179985, 243237},
			56082, 322239, 12000000, 60000000}, // Solaris 2.5 (anticipated)
	}
	nprocs := [5]int{2, 8, 33, 40, 512}
	for i, p := range osprofile.All() {
		want := pinned[i]
		if got := Getpid(plat, p); got != want.getpid {
			t.Errorf("%s getpid = %d, pinned %d", p, got, want.getpid)
		}
		if got := BwPipe(plat, p); got != want.bwPipe {
			t.Errorf("%s bw_pipe = %v, pinned %v", p, got, want.bwPipe)
		}
		if got := IPCPipe(plat, p, 64, IPCTotalBytes); got != want.ipc64 {
			t.Errorf("%s ipc pipe 64 B = %d, pinned %d", p, got, want.ipc64)
		}
		if got := IPCPipe(plat, p, 64<<10, IPCTotalBytes); got != want.ipc64K {
			t.Errorf("%s ipc pipe 64 KB = %d, pinned %d", p, got, want.ipc64K)
		}
		for j, n := range nprocs {
			if got := Ctx(plat, p, n, CtxRing); got != want.ring[j] {
				t.Errorf("%s ctx ring n=%d = %d, pinned %d", p, n, got, want.ring[j])
			}
			if got := Ctx(plat, p, n, CtxLIFO); got != want.lifo[j] {
				t.Errorf("%s ctx LIFO n=%d = %d, pinned %d", p, n, got, want.lifo[j])
			}
		}
		lat := [4]sim.Duration{SelfPipe(plat, p), LatPipe(plat, p), LatProc(plat, p, false), LatProc(plat, p, true)}
		if pin := [4]sim.Duration{want.selfPipe, want.latPipe, want.fork, want.forkExec}; lat != pin {
			t.Errorf("%s self-pipe/lat_pipe/fork/fork+exec = %v, pinned %v", p, lat, pin)
		}
	}
}
