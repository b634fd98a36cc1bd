package main

import (
	"fmt"

	"munin"
	"munin/internal/apps"
)

// workload is one named benchmark input: an evaluation program from
// internal/apps at a fixed size, a transport and a consistency engine.
// The programs are run as they are; nothing in the repository outside
// this directory knows the benchmark exists.
type workload struct {
	name      string
	why       string
	transport string
	lazy      bool
	nodes     int
	// build constructs the program and returns the sequential
	// reference's checksum and the number of operations one run
	// performs (see the README for what an op is per program).
	build func(quick bool) (app *apps.App, reference func() uint32, ops int, err error)
	// kernel reports that the reference is the real single-threaded
	// computation (sor, matmul), so apps.overhead_x means something;
	// lockheavy's reference is arithmetic on the expected final image.
	kernel bool
}

// Sizes. The full sizes are the ones that put a run just over one second
// on a 2-core box at the commit that added the benchmark, so a timed
// window of -seconds holds seven or more runs; the quick sizes let
// perf_test.go cover every workload in a few seconds and are never
// reported.
const (
	lockHeavyNodes = 8
	sorRows        = 256
	sorCols        = 2048
	simNodes       = 16
)

func lockHeavy(nodes, rounds, quickRounds int) func(bool) (*apps.App, func() uint32, int, error) {
	return func(quick bool) (*apps.App, func() uint32, int, error) {
		cfg := apps.LockHeavyConfig{Procs: nodes, Rounds: rounds}
		if quick {
			cfg.Rounds = quickRounds
		}
		app, err := apps.NewLockHeavy(cfg)
		// Every node enters both of its ring pairs' critical sections
		// each round.
		return app, func() uint32 { return apps.LockHeavyReference(cfg) }, nodes * 2 * cfg.Rounds, err
	}
}

func sor(iters, quickIters int) func(bool) (*apps.App, func() uint32, int, error) {
	return func(quick bool) (*apps.App, func() uint32, int, error) {
		cfg := apps.SORConfig{Procs: 8, Rows: sorRows, Cols: sorCols, Iters: iters, PhaseBarrier: true}
		if quick {
			cfg.Rows, cfg.Iters = 32, quickIters
		}
		app, err := apps.NewSOR(cfg)
		return app, func() uint32 { return apps.SORReference(cfg.Rows, cfg.Cols, cfg.Iters) }, cfg.Procs * cfg.Iters, err
	}
}

func matMul(n, quickN int) func(bool) (*apps.App, func() uint32, int, error) {
	return func(quick bool) (*apps.App, func() uint32, int, error) {
		cfg := apps.MatMulConfig{Procs: 8, N: n}
		if quick {
			cfg.N = quickN
		}
		app, err := apps.NewMatMul(cfg)
		return app, func() uint32 { return apps.MatMulReference(cfg.N) }, cfg.N, err
	}
}

// workloads is the fixed list; the names are the ones later issues cite.
var workloads = []workload{
	{
		name: "lockheavy.chan", transport: munin.TransportChan, nodes: lockHeavyNodes,
		why:   "24k critical sections of ~19 small messages, 79% copyset query/reply: message-rate bound, so rt hand-off, Live.Send/enqueue and core's release flush do the work; payload bytes do none",
		build: lockHeavy(lockHeavyNodes, 1500, 70),
	},
	{
		name: "lockheavy.mux", transport: munin.TransportMux, nodes: lockHeavyNodes,
		why:   "the same protocol traffic through loopback sockets, 14-byte frames, view decode and pools: a transport change moves this and leaves lockheavy.chan alone, or the reverse",
		build: lockHeavy(lockHeavyNodes, 700, 10),
	},
	{
		name: "lockheavy.lazy", transport: munin.TransportChan, lazy: true, nodes: lockHeavyNodes,
		why:   "same rt and wire layers under LazyRC: 4x fewer, larger messages through internal/lrc instead of the flush path; a gain for eager that costs lazy shows here",
		build: lockHeavy(lockHeavyNodes, 1000, 100),
	},
	{
		name: "sor.chan", transport: munin.TransportChan, nodes: 8, kernel: true,
		why:   "write/update path with page-sized payloads, dense diffs, 400 barriers and real stencil compute: diffenc, duq and chan's decode self-check on 8 KB pages; small-message fixes should not move it",
		build: sor(200, 3),
	},
	{
		name: "sor.mux", transport: munin.TransportMux, nodes: 8, kernel: true,
		why:   "bulk bytes through the framer and the tiered pools: where the GetBuf size-class regression and any copy in the mux path cost; lockheavy.mux fits the 1 KB class and bypasses that",
		build: sor(200, 3),
	},
	{
		name: "matmul.chan", transport: munin.TransportChan, nodes: 8, kernel: true,
		why:   "read path: read faults replicate 8 KB pages, almost no synchronisation, few messages; CPU goes to the kernel and the munin access path. The bypass workload: sync and transport changes predict no move",
		build: matMul(800, 48),
	},
	{
		name: "lockheavy.sim", transport: munin.TransportSim, nodes: simNodes,
		why:   "the simulator itself on one thread: virtual time, messages and bytes repeat exactly, so count-based claims are made here; a rep that differs counts as failed",
		build: lockHeavy(simNodes, 250, 3),
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runOptions are the per-run options every run of w uses. Tracing,
// metrics, batching and the delay window stay off unless the traced run
// adds them.
func (w *workload) runOptions() []munin.RunOption {
	opts := []munin.RunOption{munin.WithTransport(w.transport)}
	if w.lazy {
		opts = append(opts, munin.WithConsistency(munin.LazyRC))
	}
	return opts
}
