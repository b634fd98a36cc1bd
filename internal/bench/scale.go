package bench

// The scaling-knee table: the lock-heavy and pipeline workloads swept
// across machine sizes well past the paper's 16 nodes, under the eager,
// lazy and adaptive engines. The quantity tracked is messages per
// protocol operation — eager release consistency pushes updates to the
// whole copyset at every release, so its per-op traffic grows with the
// machine, while the lazy engine's demand-pulled diffs keep it near
// flat. The node count where a series' per-op traffic has doubled over
// its smallest-machine value is reported as that series' knee;
// TestScaleMatchesBaseline holds the 8-64 sweep equal to BENCH_scale.json
// and the lazy-below-eager ordering at and past 32 nodes.

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

// scaleEngines are the run configurations swept per workload.
// "adaptive" is the eager engine with the adaptive protocol engine on
// (the lazy engine does not compose with adaptive; see munin.Run). The
// adaptive series runs only for the pipeline — the phase-changing
// workload the engine exists for; on lockheavy the engine's online
// switching of lock-coupled write-shared regions is a known limitation
// (in-flight flushes from the old annotation's copyset abort the run).
func scaleEngines(app string) []string {
	if app == "pipeline" {
		return []string{"eager", "lazy", "adaptive"}
	}
	return []string{"eager", "lazy"}
}

// ScaleRow is one (workload, engine, machine size) measurement.
type ScaleRow struct {
	App    string
	Engine string
	Procs  int
	// Elapsed is virtual execution time (sim transport).
	Elapsed  sim.Time
	Messages int
	Bytes    int
	// Ops counts the workload's protocol operations (critical sections
	// for lockheavy, per-node rounds for pipeline), so MsgsPerOp is
	// comparable across machine sizes.
	Ops       int
	MsgsPerOp float64
	// ChecksOK reports the run reproduced the workload's reference
	// output at this scale.
	ChecksOK bool
}

// ScaleKnee locates one series' scaling knee.
type ScaleKnee struct {
	App    string
	Engine string
	// KneeProcs is the smallest swept node count where messages per op
	// exceed twice the series' value at the smallest machine, or 0 if
	// the series never doubles within the sweep.
	KneeProcs int
}

// ScaleTable is the full sweep — the shape of BENCH_scale.json.
type ScaleTable struct {
	Procs  []int
	Rounds int
	Rows   []ScaleRow
	Knees  []ScaleKnee
}

// ScaleOpts sizes the sweep.
type ScaleOpts struct {
	// Procs are the machine sizes (default 8, 16, 32, 64, 128, 256).
	Procs []int
	// Rounds are the critical-section rounds (lockheavy) and the rounds
	// per pipeline phase (default 3 — the knee shape is already clear
	// there, and 256-node sweeps stay tractable).
	Rounds int
	Model  model.CostModel
}

func (o ScaleOpts) withDefaults() ScaleOpts {
	if len(o.Procs) == 0 {
		o.Procs = []int{8, 16, 32, 64, 128, 256}
	}
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	if o.Model == (model.CostModel{}) {
		o.Model = model.Default()
	}
	return o
}

// scaleRun is one workload instance at one machine size: the App, its
// reference checksum, and its operation count.
type scaleRun struct {
	app *apps.App
	ref uint32
	ops int
}

// scaleWorkload builds the named workload at the given size for the
// given engine. The pipeline's static runs force write_shared (its
// natural phase-1 annotation makes phase 2 a runtime error without the
// adaptive engine); the adaptive run declares no hint at all.
func scaleWorkload(name, engine string, procs int, o ScaleOpts) (scaleRun, error) {
	switch name {
	case "lockheavy":
		cfg := apps.LockHeavyConfig{Procs: procs, Rounds: o.Rounds, Model: o.Model}
		app, err := apps.NewLockHeavy(cfg)
		if err != nil {
			return scaleRun{}, err
		}
		// Each of the procs workers runs Rounds rounds of two critical
		// sections (its own pair and its left neighbor's).
		return scaleRun{app, apps.LockHeavyReference(cfg), 2 * procs * o.Rounds}, nil
	case "pipeline":
		annot := protocol.WriteShared
		if engine == "adaptive" {
			annot = protocol.Adaptive
		}
		app, err := apps.NewPipeline(apps.PipelineConfig{Procs: procs, Rounds1: o.Rounds, Rounds2: o.Rounds, Model: o.Model, Override: &annot})
		if err != nil {
			return scaleRun{}, err
		}
		ref := apps.PipelineReference(apps.PipelineConfig{Procs: procs, Rounds1: o.Rounds, Rounds2: o.Rounds})
		return scaleRun{app, ref, procs * 2 * o.Rounds}, nil
	}
	return scaleRun{}, fmt.Errorf("bench: unknown scale workload %q", name)
}

// RunScale produces the scaling-knee table on the sim transport.
func RunScale(o ScaleOpts) (ScaleTable, error) {
	o = o.withDefaults()
	t := ScaleTable{Procs: o.Procs, Rounds: o.Rounds}
	for _, app := range []string{"lockheavy", "pipeline"} {
		for _, engine := range scaleEngines(app) {
			for _, procs := range o.Procs {
				w, err := scaleWorkload(app, engine, procs, o)
				if err != nil {
					return ScaleTable{}, fmt.Errorf("bench: scale %s/%s at %d: %w", app, engine, procs, err)
				}
				var opts []munin.RunOption
				switch engine {
				case "lazy":
					opts = append(opts, munin.WithConsistency(munin.LazyRC))
				case "adaptive":
					opts = append(opts, munin.WithAdaptive())
				}
				r, err := w.app.Run(context.Background(), opts...)
				if err != nil {
					return ScaleTable{}, fmt.Errorf("bench: scale %s/%s at %d: %w", app, engine, procs, err)
				}
				t.Rows = append(t.Rows, ScaleRow{
					App:       app,
					Engine:    engine,
					Procs:     procs,
					Elapsed:   r.Elapsed,
					Messages:  r.Messages,
					Bytes:     r.Bytes,
					Ops:       w.ops,
					MsgsPerOp: float64(r.Messages) / float64(w.ops),
					ChecksOK:  r.Check == w.ref,
				})
			}
			t.Knees = append(t.Knees, ScaleKnee{
				App: app, Engine: engine,
				KneeProcs: kneeOf(t.Rows, app, engine),
			})
		}
	}
	return t, nil
}

// kneeOf finds the series' knee: the smallest node count whose messages
// per op exceed twice the series' smallest-machine value.
func kneeOf(rows []ScaleRow, app, engine string) int {
	base := -1.0
	for _, r := range rows {
		if r.App != app || r.Engine != engine {
			continue
		}
		if base < 0 {
			base = r.MsgsPerOp
			continue
		}
		if r.MsgsPerOp > 2*base {
			return r.Procs
		}
	}
	return 0
}

// Format prints the sweep grouped by workload, one line per (engine,
// size), with the knees summarized beneath.
func (t ScaleTable) Format(w io.Writer) {
	fmt.Fprintf(w, "Scaling knee: messages per op across machine sizes (%d rounds)\n", t.Rounds)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "App\tEngine\tProcs\tVirtual s\tMessages\tKB\tmsgs/op\tok\t\n")
	for _, r := range t.Rows {
		ok := "yes"
		if !r.ChecksOK {
			ok = "NO"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%d\t%.0f\t%.1f\t%s\t\n",
			r.App, r.Engine, r.Procs, r.Elapsed.Seconds(),
			r.Messages, float64(r.Bytes)/1024, r.MsgsPerOp, ok)
	}
	tw.Flush()
	for _, k := range t.Knees {
		if k.KneeProcs == 0 {
			fmt.Fprintf(w, "%s/%s: no knee within the sweep\n", k.App, k.Engine)
		} else {
			fmt.Fprintf(w, "%s/%s: knee at %d nodes\n", k.App, k.Engine, k.KneeProcs)
		}
	}
}
