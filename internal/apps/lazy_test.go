package apps

// Cross-consistency equivalence: one Program, both release-consistency
// engines. On the deterministic simulator the eager and lazy runs must
// end with byte-identical final shared memory; on the concurrent
// transports (where scheduling varies) the workloads' defined outputs
// must match the sequential reference. Run under `go test -race` these
// are also the lazy engine's concurrency torture tests.

import (
	"bytes"
	"context"
	"os"
	"testing"

	"munin"
	"munin/internal/protocol"
	"munin/internal/wire"
)

// bothEngines runs the app once per engine on the given transport.
func bothEngines(t *testing.T, label string, app *App, transport string) (eager, lazy RunResult) {
	t.Helper()
	var opts []munin.RunOption
	if transport != "" {
		opts = append(opts, munin.WithTransport(transport))
	}
	eager, err := app.Run(context.Background(), opts...)
	if err != nil {
		t.Fatalf("%s eager: %v", label, err)
	}
	lazy, err = app.Run(context.Background(),
		append(append([]munin.RunOption(nil), opts...), munin.WithConsistency(munin.LazyRC))...)
	if err != nil {
		t.Fatalf("%s lazy: %v", label, err)
	}
	return eager, lazy
}

// identicalImages asserts two runs of one Program ended with the same
// final shared memory, byte for byte.
func identicalImages(t *testing.T, label string, a, b RunResult) {
	t.Helper()
	if a.Check != b.Check {
		t.Errorf("%s: checksum eager %08x, lazy %08x", label, a.Check, b.Check)
	}
	ai, bi := a.FinalImage(), b.FinalImage()
	if len(ai) == 0 || len(ai) != len(bi) {
		t.Fatalf("%s: image sizes %d vs %d", label, len(ai), len(bi))
	}
	for addr, want := range ai {
		if !bytes.Equal(bi[addr], want) {
			t.Errorf("%s: object %#x differs between engines", label, addr)
		}
	}
}

// TestLazyEquivalenceSim: matmul, SOR and the static pipeline end with
// byte-identical final images under EagerRC and LazyRC on the simulator
// (the tentpole's acceptance criterion), and the checksums match the
// sequential references.
func TestLazyEquivalenceSim(t *testing.T) {
	mm, err := NewMatMul(MatMulConfig{Procs: 4, N: 48})
	if err != nil {
		t.Fatal(err)
	}
	e, l := bothEngines(t, "matmul", mm, "")
	if want := MatMulReference(48); e.Check != want {
		t.Fatalf("matmul eager %08x, want %08x", e.Check, want)
	}
	identicalImages(t, "matmul", e, l)

	sor, err := NewSOR(SORConfig{Procs: 4, Rows: 32, Cols: 64, Iters: 6, PhaseBarrier: true})
	if err != nil {
		t.Fatal(err)
	}
	e, l = bothEngines(t, "sor", sor, "")
	if want := SORReference(32, 64, 6); e.Check != want {
		t.Fatalf("sor eager %08x, want %08x", e.Check, want)
	}
	identicalImages(t, "sor", e, l)

	ws := protocol.WriteShared
	pipe, err := NewPipeline(PipelineConfig{Procs: 4, Override: &ws})
	if err != nil {
		t.Fatal(err)
	}
	e, l = bothEngines(t, "pipeline", pipe, "")
	if want := PipelineReference(PipelineConfig{Procs: 4}.withDefaults()); e.Check != want {
		t.Fatalf("pipeline eager %08x, want %08x", e.Check, want)
	}
	identicalImages(t, "pipeline", e, l)

	lh, err := NewLockHeavy(LockHeavyConfig{Procs: 6})
	if err != nil {
		t.Fatal(err)
	}
	e, l = bothEngines(t, "lockheavy", lh, "")
	if want := LockHeavyReference(LockHeavyConfig{Procs: 6}); e.Check != want {
		t.Fatalf("lockheavy eager %08x, want %08x", e.Check, want)
	}
	identicalImages(t, "lockheavy", e, l)
}

// TestLazyEquivalenceLive: the same workloads under LazyRC on the
// concurrent transports produce the defined outputs (the WriteShared
// matmul override also exercises lazy management of the output matrix).
func TestLazyEquivalenceLive(t *testing.T) { lazyEquivalenceLive(t) }

func lazyEquivalenceLive(t *testing.T) {
	t.Helper()
	ws := protocol.WriteShared
	borrowed := wire.Outstanding()
	for _, tr := range []string{"chan", "mux"} {
		lazy := []munin.RunOption{munin.WithTransport(tr), munin.WithConsistency(munin.LazyRC)}
		r, err := runNew(NewMatMul, MatMulConfig{Procs: 4, N: 32}, append(lazy, munin.WithOverride(ws))...)
		if err != nil {
			t.Fatalf("%s matmul: %v", tr, err)
		}
		if want := MatMulReference(32); r.Check != want {
			t.Errorf("%s matmul %08x, want %08x", tr, r.Check, want)
		}
		s, err := runNew(NewSOR, SORConfig{Procs: 4, Rows: 24, Cols: 64, Iters: 3, PhaseBarrier: true}, lazy...)
		if err != nil {
			t.Fatalf("%s sor: %v", tr, err)
		}
		if want := SORReference(24, 64, 3); s.Check != want {
			t.Errorf("%s sor %08x, want %08x", tr, s.Check, want)
		}
		p, err := runNew(NewPipeline, PipelineConfig{Procs: 4, Override: &ws}, lazy...)
		if err != nil {
			t.Fatalf("%s pipeline: %v", tr, err)
		}
		if want := PipelineReference(PipelineConfig{Procs: 4}.withDefaults()); p.Check != want {
			t.Errorf("%s pipeline %08x, want %08x", tr, p.Check, want)
		}
		lhc := LockHeavyConfig{Procs: 8}
		lh, err := runNew(NewLockHeavy, lhc, lazy...)
		if err != nil {
			t.Fatalf("%s lockheavy: %v", tr, err)
		}
		if want := LockHeavyReference(lhc); lh.Check != want {
			t.Errorf("%s lockheavy %08x, want %08x", tr, lh.Check, want)
		}
		// The ring ends with dispatchers still serving notices: a machine
		// stopped mid-dispatch must return that envelope's buffer too.
		if d := wire.Outstanding() - borrowed; d != 0 {
			t.Errorf("%s: %d pooled wire buffers still borrowed after the runs", tr, d)
		}
		// TSP has no lazily managed data: the lazy run must still find
		// the optimum through the untouched eager protocols (8 nodes:
		// the lock-contention level that once exposed stale-hint
		// cycles).
		tsp, err := runNew(NewTSP, TSPConfig{Procs: 8, Cities: 8}, lazy...)
		if err != nil {
			t.Fatalf("%s tsp: %v", tr, err)
		}
		if want := uint32(TSPReference(8)); tsp.Check != want {
			t.Errorf("%s tsp %d, want %d", tr, tsp.Check, want)
		}
	}
}

// TestLazyEquivalenceLiveRepro repeats TestLazyEquivalenceLive. Under
// the race detector its 8-node lazy TSP on chan has returned a tour
// longer than the optimum (195 against 189), about once in hundreds of
// passes: a wrong answer, not an error, through protocols the lazy
// engine does not manage (ROADMAP item 4(e)). The TSP run alone, looped,
// has not reproduced it. It is skipped unless MUNIN_REPRO is set, since
// it fails only by chance:
//
//	MUNIN_REPRO=1 go test -race -run TestLazyEquivalenceLiveRepro -timeout 30m ./internal/apps
func TestLazyEquivalenceLiveRepro(t *testing.T) {
	if os.Getenv("MUNIN_REPRO") == "" {
		t.Skip("chance repro of a wrong lazy TSP tour on chan (ROADMAP item 4(e)); set MUNIN_REPRO=1 to run")
	}
	for i := 0; i < 1000 && !t.Failed(); i++ {
		lazyEquivalenceLive(t)
		if t.Failed() {
			t.Logf("failed on pass %d", i)
		}
	}
}

// TestLazyFewerMessages pins the engine's reason to exist: on the
// acquire-directed workloads (lock-heavy ring, pipeline) the lazy run
// sends strictly fewer messages than the eager run.
func TestLazyFewerMessages(t *testing.T) {
	lh, err := NewLockHeavy(LockHeavyConfig{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	e, l := bothEngines(t, "lockheavy", lh, "")
	if l.Messages >= e.Messages {
		t.Errorf("lockheavy: lazy sent %d messages, eager %d — want strictly fewer", l.Messages, e.Messages)
	}
	ws := protocol.WriteShared
	pipe, err := NewPipeline(PipelineConfig{Procs: 8, Override: &ws})
	if err != nil {
		t.Fatal(err)
	}
	e, l = bothEngines(t, "pipeline", pipe, "")
	if l.Messages >= e.Messages {
		t.Errorf("pipeline: lazy sent %d messages, eager %d — want strictly fewer", l.Messages, e.Messages)
	}
}

// TestLazyGarbageCollection: the lock-heavy workload's closing barrier
// (after the home pages everything in) must reclaim applied diff
// records.
func TestLazyGarbageCollection(t *testing.T) {
	r, err := runNew(NewLockHeavy, LockHeavyConfig{Procs: 6}, munin.WithConsistency(munin.LazyRC))
	if err != nil {
		t.Fatal(err)
	}
	if r.LrcRecordsGCed == 0 {
		t.Error("lazy lock-heavy run reclaimed no diff records")
	}
	if r.LrcDiffFetches == 0 {
		t.Error("lazy lock-heavy run fetched no diffs")
	}
}
