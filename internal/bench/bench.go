// Package bench regenerates the paper's evaluation: one driver per table
// of "Implementation and Performance of Munin" (§4), plus the ablations
// DESIGN.md calls out (A1–A4). Each driver returns a typed result with a
// Format method that prints rows shaped like the published table.
//
// Absolute numbers come from the virtual-time cost model, not 1991
// hardware, so they differ from the paper's; the shapes the paper argues
// from — Munin within ~10% of hand-coded message passing, multi-protocol
// beating single-protocol, alternate-word diffs being the RLE worst case —
// are asserted by this package's tests.
package bench

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

// DefaultProcs is the processor counts the paper tabulates (Tables 3–5
// print representative counts; the text says behaviour was similar for
// every count from one to sixteen).
var DefaultProcs = []int{1, 2, 4, 8, 16}

// AppOpts parameterizes the application tables (3, 4, 5).
type AppOpts struct {
	// Procs lists the processor counts to sweep; nil means DefaultProcs.
	Procs []int
	// N is the matrix dimension for Matrix Multiply (0 = the paper's 400).
	N int
	// Rows, Cols, Iters shape the SOR grid (0 = 512×2048 float32 — a row
	// per 8 KB page — and 100 iterations as in the paper).
	Rows, Cols, Iters int
	// Model overrides the calibrated cost model (zero value = default).
	Model model.CostModel
	// Adaptive runs the Munin versions with the adaptive protocol engine
	// enabled (profiling plus online annotation switching).
	Adaptive bool
	// Lazy runs the Munin versions under the lazy release consistency
	// engine (WithConsistency(LazyRC)) instead of the eager default.
	Lazy bool
	// Transport selects the substrate the Munin versions run on: "sim"
	// (default, virtual time), "chan" or "mux" (real concurrency,
	// wall clock). The hand-coded message-passing comparisons always run
	// on the simulator, so the DM column and DiffPct are only meaningful
	// with the default.
	Transport string
}

func (o AppOpts) withDefaults() AppOpts {
	if o.Procs == nil {
		o.Procs = DefaultProcs
	}
	if o.N == 0 {
		o.N = 400
	}
	if o.Rows == 0 {
		o.Rows = 512
	}
	if o.Cols == 0 {
		o.Cols = 2048
	}
	if o.Iters == 0 {
		o.Iters = 100
	}
	if o.Model == (model.CostModel{}) {
		o.Model = model.Default()
	}
	return o
}

// runOpts translates the per-run knobs (Transport, Adaptive, Lazy) into
// run options, plus a configuration's protocol override when it has one.
// Every application table configures its Munin runs through it.
func (o AppOpts) runOpts(override *protocol.Annotation) []munin.RunOption {
	opts := []munin.RunOption{munin.WithTransport(o.Transport)}
	if override != nil {
		opts = append(opts, munin.WithOverride(*override))
	}
	if o.Adaptive {
		opts = append(opts, munin.WithAdaptive())
	}
	if o.Lazy {
		opts = append(opts, munin.WithConsistency(munin.LazyRC))
	}
	return opts
}

// runOnce builds an App from its config and runs it once under opts.
func runOnce[C any](newApp func(C) (*apps.App, error), c C, opts ...munin.RunOption) (apps.RunResult, error) {
	app, err := newApp(c)
	if err != nil {
		return apps.RunResult{}, err
	}
	return app.Run(context.Background(), opts...)
}

// AppRow is one processor-count row of Tables 3–5: the hand-coded
// message-passing ("DM") total, the Munin total with its system/user
// split on the root node, and the percentage difference.
type AppRow struct {
	Procs int
	// DM is the message-passing implementation's total execution time.
	DM sim.Time
	// Munin is the Munin implementation's total execution time.
	Munin sim.Time
	// System and User split the root node's time (Munin version).
	System sim.Time
	User   sim.Time
	// DiffPct is 100·(Munin−DM)/DM.
	DiffPct float64
	// DMMessages and MuninMessages count total network messages.
	DMMessages    int
	MuninMessages int
	// ChecksOK reports that the Munin, message-passing and sequential
	// reference computations produced identical results.
	ChecksOK bool
	// Latencies holds the Munin run's per-operation latency percentiles
	// (acquire, release, barrier, fault, ...; see munin.Stats.Latencies).
	// Metrics recording charges nothing to the cost model, so the timed
	// columns are identical with and without it.
	Latencies map[string]munin.LatencySummary `json:",omitempty"`
}

// AppTable is a full application table.
type AppTable struct {
	Title string
	Rows  []AppRow
}

// Format prints the table in the paper's layout.
func (t AppTable) Format(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "# of\tDM\tMunin\t\t\t\t\t\n")
	fmt.Fprintf(tw, "Procs\tTotal\tTotal\tSystem\tUser\t%% Diff\tok\t\n")
	for _, r := range t.Rows {
		ok := "yes"
		if !r.ChecksOK {
			ok = "NO"
		}
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.1f\t%s\t\n",
			r.Procs, r.DM.Seconds(), r.Munin.Seconds(),
			r.System.Seconds(), r.User.Seconds(), r.DiffPct, ok)
	}
	tw.Flush()
}

// diffPct returns 100·(munin−dm)/dm.
func diffPct(munin, dm sim.Time) float64 {
	if dm == 0 {
		return 0
	}
	return 100 * float64(munin-dm) / float64(dm)
}

// appRow assembles one table row from the two implementations' results.
func appRow(procs int, mu, dm apps.RunResult, ref uint32) AppRow {
	return AppRow{
		Procs:         procs,
		DM:            dm.Elapsed,
		Munin:         mu.Elapsed,
		System:        mu.RootSystem,
		User:          mu.RootUser,
		DiffPct:       diffPct(mu.Elapsed, dm.Elapsed),
		DMMessages:    dm.Messages,
		MuninMessages: mu.Messages,
		ChecksOK:      mu.Check == ref && dm.Check == ref,
		Latencies:     mu.Latencies,
	}
}
