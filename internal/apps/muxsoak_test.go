package apps

import (
	"context"
	"testing"

	"munin"
	"munin/internal/protocol"
)

// Soak coverage for the multiplexed transport: the workloads that stress
// lock transfer and phase-changing update traffic, at the node counts
// where four shared connections carry the whole machine's traffic
// (lane contention is worst when nodes >> lanes).

// TestMux64Engines runs the 64-node lock-heavy workload through mux on
// every engine combination — eager, lazy, batched —
// and requires each to terminate with the reference image. Liveness is
// the point as much as the values: a lost or misrouted frame under lane
// sharing would park a lock transfer forever and trip the idle watchdog.
func TestMux64Engines(t *testing.T) {
	cfg := LockHeavyConfig{Procs: 64, Rounds: 4}
	app, err := NewLockHeavy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := LockHeavyReference(cfg)
	engines := []struct {
		name string
		opts []munin.RunOption
	}{
		{"eager", nil},
		{"lazy", []munin.RunOption{munin.WithConsistency(munin.LazyRC)}},
		{"batched", []munin.RunOption{munin.WithBatching()}},
		// The adaptive engine is absent on purpose: adaptive lockheavy at
		// 64 nodes fails on every transport including the simulator
		// ("diff received for an invalid local copy") — an engine
		// limitation independent of the substrate.
	}
	for _, eng := range engines {
		opts := append([]munin.RunOption{munin.WithTransport("mux")}, eng.opts...)
		r, err := app.Run(context.Background(), opts...)
		if err != nil {
			t.Fatalf("mux/%s lockheavy: %v", eng.name, err)
		}
		if r.Check != want {
			t.Errorf("mux/%s lockheavy checksum %08x, want %08x", eng.name, r.Check, want)
		}
	}
}

// TestMux256Soak is the full-width soak: 256 nodes — every node id the
// 8-bit wire field can carry — over at most four lanes, for the two workloads
// with the nastiest traffic shapes (lock-transfer chains; phase-changing
// producer/consumer updates). Each must match the simulator's final
// image byte for byte. Skipped under -short; the -race CI job runs it.
func TestMux256Soak(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node soak skipped in -short mode")
	}
	lhCfg := LockHeavyConfig{Procs: 256, Rounds: 2}
	lh, err := NewLockHeavy(lhCfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(app *App, label string, opts ...munin.RunOption) RunResult {
		r, err := app.Run(context.Background(), opts...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return r
	}
	ref := run(lh, "sim lockheavy256")
	if want := LockHeavyReference(lhCfg); ref.Check != want {
		t.Fatalf("sim lockheavy256 checksum %08x, want reference %08x", ref.Check, want)
	}
	sameImage(t, "lockheavy256/mux", ref,
		run(lh, "mux lockheavy256", munin.WithTransport("mux")))
	sameImage(t, "lockheavy256/mux-batched", ref,
		run(lh, "mux batched lockheavy256",
			munin.WithTransport("mux"), munin.WithBatching()))

	ws := protocol.WriteShared
	pl, err := NewPipeline(PipelineConfig{Procs: 256, Override: &ws, Rounds1: 3, Rounds2: 3})
	if err != nil {
		t.Fatal(err)
	}
	plRef := run(pl, "sim pipeline256")
	if want := PipelineReference(PipelineConfig{Procs: 256, Rounds1: 3, Rounds2: 3}.withDefaults()); plRef.Check != want {
		t.Fatalf("sim pipeline256 checksum %08x, want reference %08x", plRef.Check, want)
	}
	sameImage(t, "pipeline256/mux", plRef,
		run(pl, "mux pipeline256", munin.WithTransport("mux")))
}
