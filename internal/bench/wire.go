package bench

// The batched-vs-unbatched wire table: the lock-heavy ring and the
// phase-changing pipeline — the two workloads whose release-side fan-out
// the batching envelope (wire.Batch) targets — each built ONCE as a
// Program and executed under both release-consistency engines, with and
// without munin.WithBatching. The table reports transport sends (the
// number batching exists to reduce), protocol messages (which batching
// must NOT change in total), bytes, and envelope counts; on the
// deterministic sim transport the batched and unbatched finals images
// are compared byte for byte.
//
// The shape of the result is part of the design, and TestWireTable
// holds it in tier-1:
//
//   - pipeline, both engines: strictly fewer transport sends. Every
//     phase-2 worker's release flush and barrier arrival go to the
//     barrier master back to back, and the master's releases coalesce
//     with its own flush (eager) or the GC broadcast (lazy).
//   - lockheavy, lazy engine: strictly fewer transport sends (the
//     acquire-with-notices releases and the GC floors share envelopes).
//   - lockheavy, eager engine: unchanged by batching alone. Its traffic
//     is dominated by the blocking copyset-determination broadcast — a
//     request/reply exchange per destination that release consistency
//     will not let an envelope defer — and the simulator's lock-step
//     timing leaves the lock grants decoupled from the flushes. The row
//     is kept in the table precisely because "batching cannot help here"
//     is a measurable property of the eager protocol, not a missing case.

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

// WireRow is one (workload, engine) pair's batched-vs-unbatched
// comparison.
type WireRow struct {
	// App names the workload: lockheavy or pipeline.
	App string
	// Consistency is the engine both runs used: "eager" or "lazy".
	Consistency string
	// Plain and Batched are total execution times without and with
	// batching.
	Plain   sim.Time
	Batched sim.Time
	// PlainSends and BatchedSends count transport sends (envelopes); the
	// gated quantity.
	PlainSends   int
	BatchedSends int
	// PlainMessages and BatchedMessages count protocol messages —
	// batching coalesces sends, never messages, so these stay close
	// (timing shifts can move a few chase messages).
	PlainMessages   int
	BatchedMessages int
	// PlainBytes and BatchedBytes count wire bytes including framing;
	// batching saves one header per coalesced rider.
	PlainBytes   int
	BatchedBytes int
	// Envelopes counts the wire.Batch envelopes the batched run sent and
	// Riders the messages that rode inside them.
	Envelopes int
	Riders    int
	// ImageMatch reports byte-identical final shared memory between the
	// two runs (compared on the sim transport; true by fiat elsewhere,
	// where the checksums still must match).
	ImageMatch bool
	// ChecksOK reports both runs matched the workload's reference.
	ChecksOK bool
}

// WireTable is the full comparison.
type WireTable struct {
	Procs int
	Rows  []WireRow
}

// WireOpts sizes the workloads.
type WireOpts struct {
	// Procs is the processor count (0 = 8).
	Procs int
	// Rounds sizes both workloads: pipeline rounds per phase, and
	// lock-heavy critical-section rounds (plus 4, mirroring the lazy
	// table). Zero picks moderate defaults.
	Rounds int
	Model  model.CostModel
	// Transport selects the substrate ("sim" default; the image
	// comparison runs only there).
	Transport string
}

func (o WireOpts) withDefaults() WireOpts {
	if o.Procs == 0 {
		o.Procs = 8
	}
	if o.Rounds == 0 {
		o.Rounds = 8
	}
	if o.Model == (model.CostModel{}) {
		o.Model = model.Default()
	}
	return o
}

// wireWorkload is one app plus its reference checksum.
type wireWorkload struct {
	name string
	app  *apps.App
	ref  uint32
}

// wireWorkloads builds the two Programs the table sweeps.
func wireWorkloads(o WireOpts) ([]wireWorkload, error) {
	var out []wireWorkload
	lh, err := apps.NewLockHeavy(apps.LockHeavyConfig{Procs: o.Procs, Rounds: o.Rounds + 4, Model: o.Model})
	if err != nil {
		return nil, fmt.Errorf("bench: wire lockheavy: %w", err)
	}
	out = append(out, wireWorkload{"lockheavy", lh,
		apps.LockHeavyReference(apps.LockHeavyConfig{Procs: o.Procs, Rounds: o.Rounds + 4})})
	// Same forced annotation as the lazy table: write_shared is the one
	// protocol both engines manage for the pipeline's phase-2 pattern.
	ws := protocol.WriteShared
	pipe, err := apps.NewPipeline(apps.PipelineConfig{
		Procs: o.Procs, Rounds1: o.Rounds, Rounds2: o.Rounds, Model: o.Model, Override: &ws,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: wire pipeline: %w", err)
	}
	out = append(out, wireWorkload{"pipeline", pipe,
		apps.PipelineReference(apps.PipelineConfig{Procs: o.Procs, Rounds1: o.Rounds, Rounds2: o.Rounds})})
	return out, nil
}

// RunWire regenerates the wire table: each workload's Program runs under
// both engines, with and without batching, same transport and cost
// model.
func RunWire(o WireOpts) (WireTable, error) {
	o = o.withDefaults()
	ws, err := wireWorkloads(o)
	if err != nil {
		return WireTable{}, err
	}
	t := WireTable{Procs: o.Procs}
	for _, w := range ws {
		for _, cons := range munin.Consistencies() {
			base := []munin.RunOption{munin.WithConsistency(cons)}
			if o.Transport != "" {
				base = append(base, munin.WithTransport(o.Transport))
			}
			plain, err := w.app.Run(context.Background(), base...)
			if err != nil {
				return WireTable{}, fmt.Errorf("bench: wire %s %v unbatched: %w", w.name, cons, err)
			}
			batched, err := w.app.Run(context.Background(),
				append(append([]munin.RunOption(nil), base...), munin.WithBatching())...)
			if err != nil {
				return WireTable{}, fmt.Errorf("bench: wire %s %v batched: %w", w.name, cons, err)
			}
			row := WireRow{
				App:             w.name,
				Consistency:     cons.String(),
				Plain:           plain.Elapsed,
				Batched:         batched.Elapsed,
				PlainSends:      plain.Sends,
				BatchedSends:    batched.Sends,
				PlainMessages:   plain.Messages,
				BatchedMessages: batched.Messages,
				PlainBytes:      plain.Bytes,
				BatchedBytes:    batched.Bytes,
				Envelopes:       batched.BatchEnvelopes,
				Riders:          batched.BatchedMessages,
				ChecksOK:        plain.Check == w.ref && batched.Check == w.ref,
				ImageMatch:      true,
			}
			if o.Transport == "" || o.Transport == munin.TransportSim {
				row.ImageMatch = sameImage(imageOf(plain), imageOf(batched))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Format prints the comparison.
func (t WireTable) Format(w io.Writer) {
	fmt.Fprintf(w, "Batched vs unbatched transport sends, %d processors\n", t.Procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "App\tEngine\tPlain sends\tBatched sends\tEnvelopes\tRiders\tPlain KB\tBatched KB\tPlain s\tBatched s\timage\tok\t\n")
	for _, r := range t.Rows {
		img := "same"
		if !r.ImageMatch {
			img = "DIFFER"
		}
		ok := "yes"
		if !r.ChecksOK {
			ok = "NO"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.0f\t%.0f\t%.2f\t%.2f\t%s\t%s\t\n",
			r.App, r.Consistency,
			r.PlainSends, r.BatchedSends, r.Envelopes, r.Riders,
			float64(r.PlainBytes)/1024, float64(r.BatchedBytes)/1024,
			r.Plain.Seconds(), r.Batched.Seconds(), img, ok)
	}
	tw.Flush()
}
