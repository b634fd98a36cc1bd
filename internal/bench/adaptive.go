package bench

// The adaptive-engine evaluation: for each workload, run every static
// single-protocol configuration and the adaptive runtime starting from
// each mis-annotation, and compare total execution times. This is the
// table the adaptive subsystem (internal/adapt) is judged by: the
// adaptive runtime must land within a small factor of the best static
// annotation and strictly beat the worst, on workloads where the paper's
// Table 6 shows a single wrong static choice is expensive — including a
// phase-changing workload no single static annotation fits at all.

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"munin"
	"munin/internal/apps"
	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/sim"
)

// AdaptiveResult is one configuration's outcome on one workload.
type AdaptiveResult struct {
	// Config names the configuration: "correct" (the hand-tuned
	// annotations), a static override ("conventional", ...), or the same
	// with "+adaptive" when the adaptive engine runs.
	Config string
	// Adaptive marks engine-enabled runs; Start is the annotation the
	// run begins with ("correct", "none" or the mis-annotation).
	Adaptive bool
	// Elapsed is total execution time; zero when the run failed.
	Elapsed sim.Time
	// Messages counts network traffic; Switches the committed
	// annotation switches.
	Messages int
	Switches int
	// Err records a runtime abort (mis-annotated static runs genuinely
	// abort: that is the prototype's documented behaviour).
	Err string
}

// AdaptiveRow is one workload's comparison.
type AdaptiveRow struct {
	App     string
	Results []AdaptiveResult
	// Best and Worst are the fastest and slowest successful *static*
	// times (the adaptive rows are measured against them).
	Best, Worst sim.Time
}

// AdaptiveTable is the full comparison.
type AdaptiveTable struct {
	Procs int
	Rows  []AdaptiveRow
}

// AdaptiveOpts sizes the workloads. Zero values choose dimensions where
// the protocol differences are pronounced but runs stay fast.
type AdaptiveOpts struct {
	Procs int
	// N is the matmul dimension; Rows/Cols/Iters the SOR grid (the
	// false-sharing regime of Table 6b by default); Rounds the pipeline
	// rounds per phase.
	N                 int
	Rows, Cols, Iters int
	Rounds            int
	Model             model.CostModel
	// Transport selects the substrate: "sim" (default), "chan" or "mux".
	Transport string
}

func (o AdaptiveOpts) withDefaults() AdaptiveOpts {
	if o.Procs == 0 {
		o.Procs = 16
	}
	if o.N == 0 {
		o.N = 128
	}
	if o.Rows == 0 {
		o.Rows = 250 // 250/16 rows per section: never page-aligned
	}
	if o.Cols == 0 {
		o.Cols = 512 // 2 KB rows: four rows share a page
	}
	if o.Iters == 0 {
		o.Iters = 30
	}
	if o.Rounds == 0 {
		o.Rounds = 8
	}
	if o.Model == (model.CostModel{}) {
		o.Model = model.Default()
		o.Model.SORPoint = 4 * sim.Microsecond // compute-light regime (6b)
	}
	return o
}

// runOpts configures one run of the sweep: the transport, the engine
// state and the override.
func (o AdaptiveOpts) runOpts(override *protocol.Annotation, adaptive bool) []munin.RunOption {
	return AppOpts{Transport: o.Transport, Adaptive: adaptive}.runOpts(override)
}

// adaptiveRun is one workload runner under a given override/engine state.
type adaptiveRun func(override *protocol.Annotation, adaptive bool) (apps.RunResult, error)

// runAdaptiveRow runs the static sweep and the adaptive recovery runs for
// one workload. statics lists the override annotations to sweep (nil
// means the workload's own "correct" annotations).
func runAdaptiveRow(app string, statics []*protocol.Annotation, run adaptiveRun) AdaptiveRow {
	row := AdaptiveRow{App: app}
	name := func(ov *protocol.Annotation) string {
		if ov == nil {
			return "correct"
		}
		return ov.String()
	}
	record := func(cfg string, adaptive bool, ov *protocol.Annotation) {
		r, err := run(ov, adaptive)
		res := AdaptiveResult{Config: cfg, Adaptive: adaptive}
		if err != nil {
			res.Err = err.Error()
		} else {
			res.Elapsed = r.Elapsed
			res.Messages = r.Messages
			res.Switches = r.AdaptSwitches
		}
		row.Results = append(row.Results, res)
		if err == nil && !adaptive {
			if row.Best == 0 || r.Elapsed < row.Best {
				row.Best = r.Elapsed
			}
			if r.Elapsed > row.Worst {
				row.Worst = r.Elapsed
			}
		}
	}
	for _, ov := range statics {
		record(name(ov), false, ov)
	}
	for _, ov := range statics {
		record(name(ov)+"+adaptive", true, ov)
	}
	return row
}

// RunAdaptive builds the adaptive-vs-static comparison table. Each
// workload's Program is built once and executed under every
// configuration of the sweep — the "same program, N protocols" shape the
// Program/Run split exists for. (The pipeline is the exception: its
// buffer's declared hint is itself what the sweep varies, so each of its
// configurations is a distinct program.)
func RunAdaptive(o AdaptiveOpts) (AdaptiveTable, error) {
	o = o.withDefaults()
	ws := protocol.WriteShared
	conv := protocol.Conventional
	mig := protocol.Migratory
	pc := protocol.ProducerConsumer

	t := AdaptiveTable{Procs: o.Procs}

	mmApp, err := apps.NewMatMul(apps.MatMulConfig{Procs: o.Procs, N: o.N, Model: o.Model})
	if err != nil {
		return AdaptiveTable{}, fmt.Errorf("bench: adaptive matmul: %w", err)
	}
	t.Rows = append(t.Rows, runAdaptiveRow("matmul",
		[]*protocol.Annotation{nil, &ws, &conv},
		func(ov *protocol.Annotation, adaptive bool) (apps.RunResult, error) {
			return mmApp.Run(context.Background(), o.runOpts(ov, adaptive)...)
		}))

	sorApp, err := apps.NewSOR(apps.SORConfig{
		Procs: o.Procs, Rows: o.Rows, Cols: o.Cols, Iters: o.Iters, Model: o.Model,
		PhaseBarrier: apps.LiveTransport(o.Transport),
	})
	if err != nil {
		return AdaptiveTable{}, fmt.Errorf("bench: adaptive sor: %w", err)
	}
	t.Rows = append(t.Rows, runAdaptiveRow("sor-fs",
		[]*protocol.Annotation{nil, &ws, &conv},
		func(ov *protocol.Annotation, adaptive bool) (apps.RunResult, error) {
			return sorApp.Run(context.Background(), o.runOpts(ov, adaptive)...)
		}))

	// The phase-changing pipeline has no "correct" single annotation:
	// the statics sweep every plausible hint (producer_consumer — the
	// right phase-1 hint — aborts in phase 2 under the static runtime),
	// and each adaptive run starts from the same declared hint.
	pipeProcs := o.Procs
	if pipeProcs > 8 {
		pipeProcs = 8
	}
	t.Rows = append(t.Rows, runAdaptiveRow("pipeline",
		[]*protocol.Annotation{&ws, &conv, &mig, &pc},
		func(ov *protocol.Annotation, adaptive bool) (apps.RunResult, error) {
			return runOnce(apps.NewPipeline, apps.PipelineConfig{
				Procs: pipeProcs, Rounds1: o.Rounds, Rounds2: o.Rounds,
				Model: model.Default(), Override: ov,
			}, o.runOpts(nil, adaptive)...)
		}))

	// TSP: mis-annotated static runs abort outright (Fetch-and-Φ on a
	// non-reduction object is a runtime error); the adaptive runtime
	// recovers and converges. Aborted runs do not consume the Program —
	// the same value keeps executing the rest of the sweep.
	tspProcs := o.Procs
	if tspProcs > 8 {
		tspProcs = 8
	}
	tspApp, err := apps.NewTSP(apps.TSPConfig{Procs: tspProcs, Cities: 9, Model: model.Default()})
	if err != nil {
		return AdaptiveTable{}, fmt.Errorf("bench: adaptive tsp: %w", err)
	}
	t.Rows = append(t.Rows, runAdaptiveRow("tsp",
		[]*protocol.Annotation{nil, &ws, &conv},
		func(ov *protocol.Annotation, adaptive bool) (apps.RunResult, error) {
			return tspApp.Run(context.Background(), o.runOpts(ov, adaptive)...)
		}))

	return t, nil
}

// Format prints the comparison.
func (t AdaptiveTable) Format(w io.Writer) {
	fmt.Fprintf(w, "Adaptive protocol engine vs static annotations (sec), %d processors\n", t.Procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "Workload\tConfig\tTotal\tvs best\tMsgs\tSwitches\t\n")
	for _, r := range t.Rows {
		for _, res := range r.Results {
			if res.Err != "" {
				fmt.Fprintf(tw, "%s\t%s\truntime error\t\t\t\t\n", r.App, res.Config)
				continue
			}
			vs := "-"
			if r.Best > 0 {
				vs = fmt.Sprintf("%+.1f%%", 100*float64(res.Elapsed-r.Best)/float64(r.Best))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%d\t%d\t\n",
				r.App, res.Config, res.Elapsed.Seconds(), vs, res.Messages, res.Switches)
		}
	}
	tw.Flush()
}
