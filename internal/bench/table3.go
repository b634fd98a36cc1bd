package bench

import (
	"fmt"

	"munin"
	"munin/internal/apps"
	"munin/internal/mp"
)

// RunTable3 regenerates Table 3: Matrix Multiply, Munin versus hand-coded
// message passing, across processor counts (§4.1).
func RunTable3(o AppOpts) (AppTable, error) {
	return matmulTable(o, false,
		fmt.Sprintf("Table 3: Performance of Matrix Multiply (sec), %d x %d", o.withDefaults().N, o.withDefaults().N))
}

// RunTable4 regenerates Table 4: Matrix Multiply with the SingleObject
// optimization applied to the fully-read input matrix, which transmits
// the whole array on first access and cuts the page-in misses (§4.1).
func RunTable4(o AppOpts) (AppTable, error) {
	return matmulTable(o, true,
		fmt.Sprintf("Table 4: Performance of Optimized Matrix Multiply (sec), %d x %d", o.withDefaults().N, o.withDefaults().N))
}

// matmulTable runs the Munin and message-passing versions at each
// processor count and assembles the rows.
func matmulTable(o AppOpts, single bool, title string) (AppTable, error) {
	o = o.withDefaults()
	ref := apps.MatMulReference(o.N)
	t := AppTable{Title: title}
	for _, procs := range o.Procs {
		cfg := apps.MatMulConfig{Procs: procs, N: o.N, Model: o.Model, Single: single}
		mu, err := runOnce(apps.NewMatMul, cfg, append(o.runOpts(nil), munin.WithMetrics())...)
		if err != nil {
			return AppTable{}, fmt.Errorf("bench: munin matmul p=%d: %w", procs, err)
		}
		dm, err := mp.MatMul(cfg)
		if err != nil {
			return AppTable{}, fmt.Errorf("bench: mp matmul p=%d: %w", procs, err)
		}
		t.Rows = append(t.Rows, appRow(procs, mu, dm, ref))
	}
	return t, nil
}

// RunTable5 regenerates Table 5: Successive Over-Relaxation, Munin versus
// hand-coded message passing, across processor counts (§4.2).
func RunTable5(o AppOpts) (AppTable, error) {
	o = o.withDefaults()
	ref := apps.SORReference(o.Rows, o.Cols, o.Iters)
	t := AppTable{Title: fmt.Sprintf("Table 5: Performance of SOR (sec), %d x %d, %d iterations",
		o.Rows, o.Cols, o.Iters)}
	for _, procs := range o.Procs {
		cfg := apps.SORConfig{Procs: procs, Rows: o.Rows, Cols: o.Cols, Iters: o.Iters, Model: o.Model,
			PhaseBarrier: apps.LiveTransport(o.Transport)}
		mu, err := runOnce(apps.NewSOR, cfg, append(o.runOpts(nil), munin.WithMetrics())...)
		if err != nil {
			return AppTable{}, fmt.Errorf("bench: munin sor p=%d: %w", procs, err)
		}
		dm, err := mp.SOR(cfg)
		if err != nil {
			return AppTable{}, fmt.Errorf("bench: mp sor p=%d: %w", procs, err)
		}
		t.Rows = append(t.Rows, appRow(procs, mu, dm, ref))
	}
	return t, nil
}
