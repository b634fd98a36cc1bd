package bench

import (
	"strings"
	"testing"

	"munin"
	"munin/internal/apps"
	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/sim"
)

// TestAdaptiveWithinBestStatic is the adaptive engine's acceptance bar:
// on the phase-changing pipeline and on each mis-annotated Table 6
// configuration (everything write-shared, everything conventional, for
// both Matrix Multiply and SOR), the adaptive runtime's total execution
// time lands within 15% of the best static annotation and strictly
// beats the worst static one.
func TestAdaptiveWithinBestStatic(t *testing.T) {
	tbl, err := RunAdaptive(AdaptiveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]AdaptiveRow, len(tbl.Rows))
	for _, r := range tbl.Rows {
		rows[r.App] = r
	}

	for _, app := range []string{"matmul", "sor-fs", "pipeline"} {
		r, ok := rows[app]
		if !ok {
			t.Fatalf("missing row %q", app)
		}
		if r.Best == 0 || r.Worst <= r.Best {
			t.Fatalf("%s: degenerate static spread best=%v worst=%v", app, r.Best, r.Worst)
		}
		for _, res := range r.Results {
			if !res.Adaptive {
				continue
			}
			if res.Err != "" {
				t.Errorf("%s %s: adaptive run aborted: %s", app, res.Config, res.Err)
				continue
			}
			if float64(res.Elapsed) > 1.15*float64(r.Best) {
				t.Errorf("%s %s: %v not within 15%% of best static %v",
					app, res.Config, res.Elapsed, r.Best)
			}
			if res.Elapsed >= r.Worst {
				t.Errorf("%s %s: %v does not beat worst static %v",
					app, res.Config, res.Elapsed, r.Worst)
			}
		}
	}

	// The phase-changing workload's producer_consumer static — the right
	// hint for phase 1 — must abort under the static runtime (that is
	// Table 1's documented stable-sharing semantics) while its adaptive
	// counterpart completes.
	pipe := rows["pipeline"]
	var pcStaticErr, pcAdaptiveOK bool
	for _, res := range pipe.Results {
		if res.Config == "producer_consumer" && strings.Contains(res.Err, "stable sharing") {
			pcStaticErr = true
		}
		if res.Config == "producer_consumer+adaptive" && res.Err == "" {
			pcAdaptiveOK = true
		}
	}
	if !pcStaticErr {
		t.Error("pipeline: static producer_consumer should abort on the phase change")
	}
	if !pcAdaptiveOK {
		t.Error("pipeline: adaptive producer_consumer should recover from the phase change")
	}

	// TSP: mis-annotated static runs abort (Fetch-and-Φ on a
	// non-reduction object); the adaptive runtime converges to within a
	// bounded overhead of the correctly annotated run.
	tsp := rows["tsp"]
	var correct sim.Time
	for _, res := range tsp.Results {
		if res.Config == "correct" {
			correct = res.Elapsed
		}
	}
	if correct == 0 {
		t.Fatal("tsp: no correct baseline")
	}
	for _, res := range tsp.Results {
		switch {
		case !res.Adaptive && res.Config != "correct":
			if res.Err == "" {
				t.Errorf("tsp %s: mis-annotated static run should abort", res.Config)
			}
		case res.Adaptive:
			if res.Err != "" {
				t.Errorf("tsp %s: adaptive run aborted: %s", res.Config, res.Err)
			} else if float64(res.Elapsed) > 2*float64(correct) {
				t.Errorf("tsp %s: %v not within 2x of correct %v", res.Config, res.Elapsed, correct)
			}
		}
	}
}

// TestAdaptiveMisannotatedResultsCorrect re-runs each app mis-annotated
// with the adaptive engine on and checks the computed results against the
// sequential references — switching protocols mid-run must never corrupt
// data.
func TestAdaptiveMisannotatedResultsCorrect(t *testing.T) {
	conv := protocol.Conventional
	ws := protocol.WriteShared
	mig := protocol.Migratory

	mmRef := apps.MatMulReference(96)
	for _, ov := range []*protocol.Annotation{&conv, &ws, &mig} {
		r, err := runOnce(apps.NewMatMul, apps.MatMulConfig{Procs: 8, N: 96}, munin.WithOverride(*ov), munin.WithAdaptive())
		if err != nil {
			t.Fatalf("matmul %v adaptive: %v", *ov, err)
		}
		if r.Check != mmRef {
			t.Errorf("matmul %v adaptive checksum %08x, want %08x", *ov, r.Check, mmRef)
		}
	}

	// Write-shared keeps SOR's barrier semantics exactly (writes stay in
	// the DUQ until the release), so the adaptive run must match the
	// sequential reference bit for bit. Conventional is different: a
	// compute-phase read can observe a neighbour's same-iteration write
	// (chaotic relaxation — the same documented perturbation static
	// Table 6 overrides show), so the sum may drift slightly before the
	// engine converges; it must stay within relaxation tolerance.
	sorRef := apps.SORReference(64, 512, 10)
	sor := apps.SORConfig{Procs: 8, Rows: 64, Cols: 512, Iters: 10}
	rws, err := runOnce(apps.NewSOR, sor, munin.WithOverride(ws), munin.WithAdaptive())
	if err != nil {
		t.Fatalf("sor write_shared adaptive: %v", err)
	}
	if rws.Check != sorRef {
		t.Errorf("sor write_shared adaptive checksum %08x, want %08x", rws.Check, sorRef)
	}
	rconv, err := runOnce(apps.NewSOR, sor, munin.WithOverride(conv), munin.WithAdaptive())
	if err != nil {
		t.Fatalf("sor conventional adaptive: %v", err)
	}
	if rel := relDiff(rconv.Check, sorRef); rel > 1e-3 {
		t.Errorf("sor conventional adaptive sum %08x drifts %.2g from reference %08x", rconv.Check, rel, sorRef)
	}

	tspRef := uint32(apps.TSPReference(9))
	for _, ov := range []*protocol.Annotation{&conv, &ws} {
		r, err := runOnce(apps.NewTSP, apps.TSPConfig{Procs: 6, Cities: 9}, munin.WithOverride(*ov), munin.WithAdaptive())
		if err != nil {
			t.Fatalf("tsp %v adaptive: %v", *ov, err)
		}
		if r.Check != tspRef {
			t.Errorf("tsp %v adaptive bound %d, want %d", *ov, r.Check, tspRef)
		}
		if r.AdaptSwitches == 0 {
			t.Errorf("tsp %v adaptive committed no switches (expected the bound to become a reduction object)", *ov)
		}
	}

	pipeRef := apps.PipelineReference(apps.PipelineConfig{Procs: 8})
	none := protocol.Adaptive
	for _, cfg := range []struct {
		name string
		ov   *protocol.Annotation
	}{{"no hint", &none}, {"conventional", &conv}, {"migratory", &mig}} {
		r, err := runOnce(apps.NewPipeline, apps.PipelineConfig{Procs: 8, Override: cfg.ov}, munin.WithAdaptive())
		if err != nil {
			t.Fatalf("pipeline %s adaptive: %v", cfg.name, err)
		}
		if r.Check != pipeRef {
			t.Errorf("pipeline %s adaptive sum %d, want %d", cfg.name, r.Check, pipeRef)
		}
	}
}

// relDiff returns |a-b|/b for checksum sums.
func relDiff(a, b uint32) float64 {
	d := float64(a) - float64(b)
	if d < 0 {
		d = -d
	}
	return d / float64(b)
}

// TestAdaptiveLeavesCorrectAnnotationsAlone: with the engine on and the
// paper's own annotations, no switches fire and the timing is unchanged
// — correct hints are already the fixed point.
func TestAdaptiveLeavesCorrectAnnotationsAlone(t *testing.T) {
	sor := apps.SORConfig{Procs: 8, Rows: 64, Cols: 512, Iters: 10}
	base, err := runOnce(apps.NewSOR, sor)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := runOnce(apps.NewSOR, sor, munin.WithAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	if ad.AdaptSwitches != 0 {
		t.Errorf("adaptive SOR with correct annotations committed %d switches", ad.AdaptSwitches)
	}
	// Profiling itself costs a little classification time at release
	// points; it must stay in the noise (well under 1%).
	if float64(ad.Elapsed) > 1.01*float64(base.Elapsed) {
		t.Errorf("adaptive SOR elapsed %v well above static %v", ad.Elapsed, base.Elapsed)
	}

	tsp, err := runOnce(apps.NewTSP, apps.TSPConfig{Procs: 6, Cities: 9}, munin.WithAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	if tsp.AdaptSwitches != 0 {
		t.Errorf("adaptive TSP with correct annotations committed %d switches", tsp.AdaptSwitches)
	}
}

// TestAdaptiveTableFormats smoke-tests the printed form.
func TestAdaptiveTableFormats(t *testing.T) {
	tbl, err := RunAdaptive(AdaptiveOpts{Procs: 8, N: 64, Rows: 64, Iters: 8, Rounds: 4,
		Model: func() model.CostModel { m := model.Default(); m.SORPoint = 4 * sim.Microsecond; return m }()})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	tbl.Format(&b)
	out := b.String()
	for _, want := range []string{"matmul", "sor-fs", "pipeline", "tsp", "+adaptive", "Switches"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}
