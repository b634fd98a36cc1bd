package apps

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"munin"
	"munin/internal/protocol"
)

// Cross-transport equivalence: the same workload must produce the same
// final shared-memory image whether it runs on the deterministic
// simulator or on the real concurrent runtimes. Each workload runs
// multi-node, so `go test -race ./internal/apps` drives the protocol
// under true concurrency for every one of them.
//
// The SOR runs set PhaseBarrier: the paper's single-barrier program is
// data-race-free only under the simulator's cost model (see
// SORConfig.PhaseBarrier); the properly synchronized variant is
// deterministic on every transport.

// transportsUnderTest lists the live transports compared against sim.
var transportsUnderTest = []string{"chan", "mux"}

// sameImage asserts two runs ended with byte-identical shared memory.
func sameImage(t *testing.T, label string, ref, got RunResult) {
	t.Helper()
	if got.Check != ref.Check {
		t.Errorf("%s: checksum %08x, want %08x", label, got.Check, ref.Check)
	}
	refImg, gotImg := ref.FinalImage(), got.FinalImage()
	if len(refImg) == 0 {
		t.Fatalf("%s: reference image is empty", label)
	}
	if len(gotImg) != len(refImg) {
		t.Errorf("%s: image has %d objects, want %d", label, len(gotImg), len(refImg))
	}
	for addr, want := range refImg {
		if !bytes.Equal(gotImg[addr], want) {
			t.Errorf("%s: object %#x differs between transports", label, addr)
		}
	}
}

func TestEquivalenceMatMul(t *testing.T) {
	// N=100: 400-byte rows do not divide the 8 KB page, so rows straddle
	// pages (and objects) on every matrix.
	for _, n := range []int{48, 100} {
		run := func(tr string) RunResult {
			r, err := runNew(NewMatMul, MatMulConfig{Procs: 4, N: n}, munin.WithTransport(tr))
			if err != nil {
				t.Fatalf("%s matmul N=%d: %v", tr, n, err)
			}
			return r
		}
		ref := run("sim")
		if want := MatMulReference(n); ref.Check != want {
			t.Fatalf("sim matmul N=%d checksum %08x, want reference %08x", n, ref.Check, want)
		}
		for _, tr := range transportsUnderTest {
			sameImage(t, fmt.Sprintf("matmul/%s N=%d", tr, n), ref, run(tr))
		}
	}
}

func TestEquivalenceSOR(t *testing.T) {
	cfg := SORConfig{Procs: 4, Rows: 32, Cols: 64, Iters: 6, PhaseBarrier: true}
	run := func(tr string) RunResult {
		r, err := runNew(NewSOR, cfg, munin.WithTransport(tr))
		if err != nil {
			t.Fatalf("%s sor: %v", tr, err)
		}
		return r
	}
	ref := run("sim")
	if want := SORReference(cfg.Rows, cfg.Cols, cfg.Iters); ref.Check != want {
		t.Fatalf("sim sor checksum %08x, want reference %08x", ref.Check, want)
	}
	for _, tr := range transportsUnderTest {
		sameImage(t, "sor/"+tr, ref, run(tr))
	}
}

func TestEquivalencePipeline(t *testing.T) {
	// Static write-shared configuration first: fully deterministic, so
	// the whole final memory image must match byte for byte.
	ws := protocol.WriteShared
	cfg := PipelineConfig{Procs: 4, Override: &ws}
	run := func(tr string) RunResult {
		r, err := runNew(NewPipeline, cfg, munin.WithTransport(tr))
		if err != nil {
			t.Fatalf("%s pipeline: %v", tr, err)
		}
		return r
	}
	ref := run("sim")
	if want := PipelineReference(cfg.withDefaults()); ref.Check != want {
		t.Fatalf("sim pipeline checksum %08x, want reference %08x", ref.Check, want)
	}
	for _, tr := range transportsUnderTest {
		sameImage(t, "pipeline/"+tr, ref, run(tr))
	}
}

func TestEquivalencePipelineAdaptive(t *testing.T) {
	adaptive := protocol.Adaptive
	cfg := PipelineConfig{Procs: 4, Override: &adaptive}
	run := func(tr string) RunResult {
		r, err := runNew(NewPipeline, cfg, munin.WithTransport(tr), munin.WithAdaptive())
		if err != nil {
			t.Fatalf("%s pipeline: %v", tr, err)
		}
		return r
	}
	ref := run("sim")
	if want := PipelineReference(cfg.withDefaults()); ref.Check != want {
		t.Fatalf("sim pipeline checksum %08x, want reference %08x", ref.Check, want)
	}
	for _, tr := range transportsUnderTest {
		got := run(tr)
		// The adaptive engine's switch points depend on real-time
		// interleaving, so the buffer's final protocol (and hence which
		// node holds which copy) may differ; the consumed totals — the
		// workload's defined output — must not. (The static-annotation
		// variant above is the byte-identical image comparison.)
		if got.Check != ref.Check {
			t.Errorf("pipeline/%s: checksum %08x, want %08x", tr, got.Check, ref.Check)
		}
	}
}

// TestEquivalenceRepeat re-runs the concurrent-transport workloads a few
// times: real scheduling differs run to run, and every schedule must
// converge to the same image.
func TestEquivalenceRepeat(t *testing.T) {
	mmRef := MatMulReference(32)
	sorRef := SORReference(24, 64, 3)
	for rep := 0; rep < 3; rep++ {
		for _, tr := range transportsUnderTest {
			mm, err := runNew(NewMatMul, MatMulConfig{Procs: 4, N: 32}, munin.WithTransport(tr))
			if err != nil {
				t.Fatalf("rep %d %s matmul: %v", rep, tr, err)
			}
			if mm.Check != mmRef {
				t.Errorf("rep %d %s matmul checksum %08x, want %08x", rep, tr, mm.Check, mmRef)
			}
			sor, err := runNew(NewSOR, SORConfig{Procs: 4, Rows: 24, Cols: 64, Iters: 3,
				PhaseBarrier: true}, munin.WithTransport(tr))
			if err != nil {
				t.Fatalf("rep %d %s sor: %v", rep, tr, err)
			}
			if sor.Check != sorRef {
				t.Errorf("rep %d %s sor checksum %08x, want %08x", rep, tr, sor.Check, sorRef)
			}
		}
	}
}

// TestTransportTSP runs the branch-and-bound workload (reduction +
// migratory + lock-coupled data) on the live transports: the tour
// exploration order varies with real scheduling but the optimal bound
// must not. Eight nodes matter: at that contention many requests for one
// lock are in flight at once, so a request often passes nodes whose hints
// other requests have just turned.
func TestTransportTSP(t *testing.T) {
	want := uint32(TSPReference(8))
	for rep := 0; rep < 3; rep++ {
		for _, tr := range transportsUnderTest {
			r, err := runNew(NewTSP, TSPConfig{Procs: 8, Cities: 8}, munin.WithTransport(tr))
			if err != nil {
				t.Fatalf("%s tsp: %v", tr, err)
			}
			if r.Check != want {
				t.Errorf("%s tsp bound %d, want %d", tr, r.Check, want)
			}
		}
	}
}

// TestSORRefusesLiveTransportWithoutPhaseBarrier: a SOR App built
// without the phase barrier is chaotic relaxation on a live transport;
// the run must fail loudly instead of reporting a diverged grid.
func TestSORRefusesLiveTransportWithoutPhaseBarrier(t *testing.T) {
	app, err := NewSOR(SORConfig{Procs: 4, Rows: 24, Cols: 64, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(context.Background(), munin.WithTransport("chan")); err == nil {
		t.Fatal("barrier-less SOR ran on chan without an error")
	} else if !strings.Contains(err.Error(), "phase barrier") {
		t.Fatalf("err = %v, want the phase-barrier explanation", err)
	}
	// The same App on the simulator stays valid.
	if _, err := app.Run(context.Background()); err != nil {
		t.Fatalf("sim run: %v", err)
	}
}

// TestTransportStats sanity-checks wall-clock accounting on the live
// transports: elapsed time advances and messages flow.
func TestTransportStats(t *testing.T) {
	for _, tr := range transportsUnderTest {
		r, err := runNew(NewMatMul, MatMulConfig{Procs: 2, N: 16}, munin.WithTransport(tr))
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if r.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v, want > 0", tr, r.Elapsed)
		}
		if r.Messages == 0 {
			t.Errorf("%s: no messages counted", tr)
		}
		if fmt.Sprint(r.PerKind) == "map[]" {
			t.Errorf("%s: per-kind stats empty", tr)
		}
	}
}

// TestTransportScale runs wider machines (8–16 nodes) on both live
// transports: page-sharing SOR at 16 nodes is the configuration that
// exposed the update-apply/local-store interleaving bug the transports
// were race-hardened against (see applyUpdate in core/flush.go).
func TestTransportScale(t *testing.T) {
	for _, tr := range transportsUnderTest {
		r, err := runNew(NewMatMul, MatMulConfig{Procs: 8, N: 96}, munin.WithTransport(tr))
		if err != nil {
			t.Fatalf("%s matmul: %v", tr, err)
		}
		if ref := MatMulReference(96); r.Check != ref {
			t.Errorf("%s matmul %08x != %08x", tr, r.Check, ref)
		}
		s, err := runNew(NewSOR, SORConfig{Procs: 16, Rows: 64, Cols: 128, Iters: 8, PhaseBarrier: true}, munin.WithTransport(tr))
		if err != nil {
			t.Fatalf("%s sor: %v", tr, err)
		}
		if ref := SORReference(64, 128, 8); s.Check != ref {
			t.Errorf("%s sor %08x != %08x", tr, s.Check, ref)
		}
		adaptive := protocol.Adaptive
		p, err := runNew(NewPipeline, PipelineConfig{Procs: 8, Override: &adaptive}, munin.WithTransport(tr), munin.WithAdaptive())
		if err != nil {
			t.Fatalf("%s pipeline: %v", tr, err)
		}
		if ref := PipelineReference(PipelineConfig{Procs: 8}.withDefaults()); p.Check != ref {
			t.Errorf("%s pipeline %08x != %08x", tr, p.Check, ref)
		}
	}
}
