package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"munin/internal/apps"
	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/sim"
)

// Table6Row is one protocol configuration's execution times for both
// applications at the fixed processor count.
type Table6Row struct {
	// Name is "Multiple", "Write-shared" or "Conventional".
	Name string
	// Override is nil for the multi-protocol configuration.
	Override *protocol.Annotation
	// MatMul and SOR are total execution times.
	MatMul sim.Time
	SOR    sim.Time
	// MatMulMessages and SORMessages count network messages, which the
	// single-protocol configurations inflate.
	MatMulMessages int
	SORMessages    int
}

// Table6 compares multi-protocol Munin against single-protocol
// configurations (§4.3). The paper runs unoptimized Matrix Multiply and
// SOR at 16 processors with (a) each variable's own annotation,
// (b) everything write-shared and (c) everything conventional.
type Table6 struct {
	Procs int
	Note  string
	Rows  []Table6Row
}

// Table6Opts parameterizes the comparison.
type Table6Opts struct {
	// Procs is the processor count (0 = the paper's 16).
	Procs int
	// App workload sizes; zero values mean the paper's.
	AppOpts
}

// RunTable6 regenerates Table 6.
func RunTable6(o Table6Opts) (Table6, error) {
	if o.Procs == 0 {
		o.Procs = 16
	}
	o.AppOpts = o.AppOpts.withDefaults()
	return runTable6(o)
}

// runTable6 runs the three configurations with fully-resolved options.
// The two application Programs are built once; each row is the same
// program executed under a different per-run protocol override — the
// comparison the Program/Run split expresses natively.
func runTable6(o Table6Opts) (Table6, error) {
	a := o.AppOpts
	ws := protocol.WriteShared
	conv := protocol.Conventional
	configs := []Table6Row{
		{Name: "Multiple", Override: nil},
		{Name: "Write-shared", Override: &ws},
		{Name: "Conventional", Override: &conv},
	}
	mmApp, err := apps.NewMatMul(apps.MatMulConfig{Procs: o.Procs, N: a.N, Model: a.Model})
	if err != nil {
		return Table6{}, fmt.Errorf("bench: table 6 matmul: %w", err)
	}
	sorApp, err := apps.NewSOR(apps.SORConfig{
		Procs: o.Procs, Rows: a.Rows, Cols: a.Cols, Iters: a.Iters, Model: a.Model,
		// Live transports need the data-race-free variant (see
		// apps.SORConfig.PhaseBarrier).
		PhaseBarrier: apps.LiveTransport(a.Transport),
	})
	if err != nil {
		return Table6{}, fmt.Errorf("bench: table 6 sor: %w", err)
	}
	t := Table6{Procs: o.Procs}
	for _, cfg := range configs {
		opts := a.runOpts(cfg.Override)
		mm, err := mmApp.Run(context.Background(), opts...)
		if err != nil {
			return Table6{}, fmt.Errorf("bench: table 6 matmul %s: %w", cfg.Name, err)
		}
		sor, err := sorApp.Run(context.Background(), opts...)
		if err != nil {
			return Table6{}, fmt.Errorf("bench: table 6 sor %s: %w", cfg.Name, err)
		}
		cfg.MatMul = mm.Elapsed
		cfg.SOR = sor.Elapsed
		cfg.MatMulMessages = mm.Messages
		cfg.SORMessages = sor.Messages
		t.Rows = append(t.Rows, cfg)
	}
	return t, nil
}

// RunTable6FalseSharing runs the Table 6 comparison in the regime the
// paper's SOR discussion emphasizes: sections not aligned to page
// boundaries (multiple writers per boundary page — "considerable false
// sharing", §4.2) and little computation per grid point, so consistency
// traffic dominates. Here the single-writer conventional protocol
// ping-pongs whole pages between the neighbouring writers and loses by
// the large factor the paper reports, while the multiple-writer protocols
// merge diffs.
func RunTable6FalseSharing(o Table6Opts) (Table6, error) {
	if o.Procs == 0 {
		o.Procs = 16
	}
	a := o.AppOpts
	if a.N == 0 {
		a.N = 256
	}
	if a.Rows == 0 {
		a.Rows = 500 // 500/16 rows per section: never page-aligned
	}
	if a.Cols == 0 {
		a.Cols = 512 // 2 KB rows: four rows share a page
	}
	if a.Iters == 0 {
		a.Iters = 50
	}
	if a.Model == (model.CostModel{}) {
		a.Model = model.Default()
		a.Model.SORPoint = 4 * sim.Microsecond // compute-light regime
	}
	o.AppOpts = a
	t, err := runTable6(o)
	if err != nil {
		return Table6{}, err
	}
	t.Note = fmt.Sprintf("false-sharing regime: %dx%d grid (%d rows/section), 2 KB rows",
		a.Rows, a.Cols, a.Rows/o.Procs)
	return t, nil
}

// Format prints the table in the paper's layout.
func (t Table6) Format(w io.Writer) {
	fmt.Fprintf(w, "Table 6: Effect of Multiple Protocols (sec), %d processors\n", t.Procs)
	if t.Note != "" {
		fmt.Fprintf(w, "  %s\n", t.Note)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "Protocol\tMatrix Multiply\tSOR\tMM msgs\tSOR msgs\t\n")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%d\t%d\t\n",
			r.Name, r.MatMul.Seconds(), r.SOR.Seconds(), r.MatMulMessages, r.SORMessages)
	}
	tw.Flush()
}
