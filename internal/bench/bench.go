// Package bench implements the paper's benchmark programs against the
// simulated machine: getpid (Table 2), the ctx context-switch ring and
// LIFO chain (Figure 1), the §6 memory suite (Figures 2-8), bonnie
// (Figures 9-11), crtdel (Figure 12), the Modified Andrew Benchmark
// (Table 3), lmbench's bw_pipe (Table 4) and bw_tcp (Table 5), ttcp UDP
// (Figure 13), and MAB over NFS (Tables 6-7).
//
// Every function here is deterministic: it returns the model's mean value
// for a single run. The experiment runner in package core performs the
// twenty-run protocol (§3) and injects the calibrated per-OS run-to-run
// noise, which is where the paper's Std Dev columns come from.
package bench

import (
	"repro/internal/cpu"
	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// Platform bundles the hardware the paper benchmarked: the Pentium CPU and
// the benchmark disk (the HP 3725; the OS disk is not exercised by the
// timed benchmarks).
type Platform struct {
	CPU  cpu.CPU
	Disk func(rng *sim.RNG) *disk.Disk
}

// PaperPlatform returns tnt.stanford.edu as modelled.
func PaperPlatform() Platform {
	return Platform{
		CPU:  cpu.PentiumP54C100(),
		Disk: func(rng *sim.RNG) *disk.Disk { return disk.MustNew(disk.HP3725(), rng) },
	}
}

// GetpidIterations is the loop count of the system-call benchmark
// (Table 2: "100,000 iterations each").
const GetpidIterations = 100_000

// Getpid measures the mean time of one getpid() call over the benchmark's
// loop, per §4.
func Getpid(plat Platform, p *osprofile.Profile) sim.Duration {
	return getpidOn(kernel.MustMachine(p, 1))
}

// getpidOn runs the getpid loop on a prepared machine (possibly observed).
// Timing starts once the loop process is dispatched: the initial dispatch
// is not part of the loop.
func getpidOn(m *kernel.Machine) sim.Duration {
	var start sim.Time
	m.Spawn("getpid-loop", kernel.Program{
		Pre:   []kernel.Op{{Kind: kernel.OpMark, At: &start}},
		Body:  []kernel.Op{{Kind: kernel.OpSyscall}},
		Loops: GetpidIterations,
	})
	m.Run()
	return m.Now().Sub(start) / GetpidIterations
}

// CtxSwitches is the per-run switch count of the ctx benchmark
// (Figure 1: "50,000 context switches each"). Runs with many processes
// use proportionally fewer laps; the mean is unaffected.
const CtxSwitches = 50_000

// CtxOrder selects the token-passing pattern of the ctx benchmark.
type CtxOrder int

const (
	// CtxRing passes the token around a ring of processes (the default).
	CtxRing CtxOrder = iota
	// CtxLIFO passes it back and forth through a chain (the Solaris-LIFO
	// variant of Figure 1).
	CtxLIFO
)

// Ctx measures the mean time per context switch (including the pipe
// operations, as the paper's numbers do) for the given number of
// processes.
func Ctx(plat Platform, p *osprofile.Profile, nproc int, order CtxOrder) sim.Duration {
	return ctxOn(kernel.MustMachine(p, 1), nproc, order)
}

// ctxOn runs the ctx benchmark on a prepared machine (possibly observed).
func ctxOn(m *kernel.Machine, nproc int, order CtxOrder) sim.Duration {
	if nproc < 2 {
		panic("bench: ctx needs at least two processes")
	}
	// Scale work down for big rings so every configuration does a few
	// thousand hops; the per-switch mean is what matters.
	hops := CtxSwitches
	if nproc > 16 {
		hops = CtxSwitches / nproc * 4
	}
	if hops < 4*nproc {
		hops = 4 * nproc
	}
	switch order {
	case CtxRing:
		return ctxRing(m, nproc, hops)
	case CtxLIFO:
		return ctxLIFO(m, nproc, hops)
	}
	panic("bench: unknown ctx order")
}

// ctxRing builds the ring: process i reads from pipe i and writes to pipe
// (i+1) mod n. The token makes hops/n laps. Process 0 injects the token
// on its first lap — timing starts there — and absorbs it after its last.
func ctxRing(m *kernel.Machine, nproc, hops int) sim.Duration {
	pipes := make([]*kernel.Pipe, nproc)
	for i := range pipes {
		pipes[i] = m.NewPipe()
	}
	laps := hops / nproc
	if laps < 1 {
		laps = 1
	}
	var start sim.Time
	for i := 0; i < nproc; i++ {
		read := readOp(pipes[i])
		write := writeOp(pipes[(i+1)%nproc])
		prog := kernel.Program{Body: []kernel.Op{read, write}, Loops: laps}
		if i == 0 {
			prog = kernel.Program{
				Pre:   []kernel.Op{{Kind: kernel.OpMark, At: &start}, write},
				Body:  prog.Body,
				Loops: laps - 1,
				Post:  []kernel.Op{read},
			}
		}
		m.Spawn("ring", prog)
	}
	m.Run()
	return m.Now().Sub(start) / sim.Duration(laps*nproc)
}

// ctxLIFO builds the chain: the token travels 0→1→…→n-1 and back. One
// round trip is 2(n-1) hops.
func ctxLIFO(m *kernel.Machine, nproc, hops int) sim.Duration {
	// up[i] carries the token from i to i+1; down[i] from i+1 to i.
	up := make([]*kernel.Pipe, nproc-1)
	down := make([]*kernel.Pipe, nproc-1)
	for i := range up {
		up[i] = m.NewPipe()
		down[i] = m.NewPipe()
	}
	trips := hops / (2 * (nproc - 1))
	if trips < 1 {
		trips = 1
	}
	var start sim.Time
	for i := 0; i < nproc; i++ {
		var prog kernel.Program
		switch {
		case i == 0:
			prog = kernel.Program{
				Pre:   []kernel.Op{{Kind: kernel.OpMark, At: &start}, writeOp(up[0])},
				Body:  []kernel.Op{readOp(down[0]), writeOp(up[0])},
				Loops: trips - 1,
				Post:  []kernel.Op{readOp(down[0])},
			}
		case i == nproc-1:
			prog = kernel.Program{
				Body:  []kernel.Op{readOp(up[i-1]), writeOp(down[i-1])},
				Loops: trips,
			}
		default:
			prog = kernel.Program{
				Body: []kernel.Op{
					readOp(up[i-1]), writeOp(up[i]),
					readOp(down[i]), writeOp(down[i-1]),
				},
				Loops: trips,
			}
		}
		m.Spawn("chain", prog)
	}
	m.Run()
	return m.Now().Sub(start) / sim.Duration(trips*2*(nproc-1))
}

// readOp and writeOp are the one-byte token moves of the ctx programs.
func readOp(pp *kernel.Pipe) kernel.Op {
	return kernel.Op{Kind: kernel.OpPipeRead, P: pp, N: 1}
}

func writeOp(pp *kernel.Pipe) kernel.Op {
	return kernel.Op{Kind: kernel.OpPipeWrite, P: pp, N: 1}
}
