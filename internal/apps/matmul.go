package apps

import (
	"fmt"

	"munin"
	"munin/internal/model"
)

// NewMatMul builds the paper's Matrix Multiply (§4.1) as a reusable App.
// The shared variables are declared exactly as in the paper:
//
//	shared read_only int input1[N][N];
//	shared read_only int input2[N][N];
//	shared result    int output[N][N];
//
// Each worker computes a block of output rows; when it finishes it waits
// at a barrier, flushing its output diffs — which, because output is a
// result object, travel only to the root. Procs, the dimension and the
// SingleObject hint shape the Program; everything else is a per-run
// option.
func NewMatMul(c MatMulConfig) (*App, error) {
	if c.N <= 0 || c.Procs <= 0 {
		return nil, fmt.Errorf("apps: bad matmul config %+v", c)
	}
	if c.Model == (model.CostModel{}) {
		c.Model = model.Default()
	}
	p := munin.NewProgram(c.Procs)

	var inputOpts []munin.DeclOption
	if c.Single {
		inputOpts = append(inputOpts, munin.WithSingleObject())
	}
	n := c.N
	input1 := munin.DeclareMatrix[int32](p, "input1", n, n, munin.ReadOnly)
	input2 := munin.DeclareMatrix[int32](p, "input2", n, n, munin.ReadOnly, inputOpts...)
	output := munin.DeclareMatrix[int32](p, "output", n, n, munin.ResultObject)
	input1.Init(func(i, j int) int32 { a, _ := MatMulInit(i, j); return a })
	input2.Init(func(i, j int) int32 { _, b := MatMulInit(i, j); return b })

	done := p.CreateBarrier(c.Procs + 1)

	cost := c.Model
	procs := c.Procs
	root := func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			lo, hi := w*n/procs, (w+1)*n/procs
			root.Spawn(w, fmt.Sprintf("mm-worker%d", w), func(t *munin.Thread) {
				arow := make([]int32, n)
				crow := make([]int32, n)
				for i := lo; i < hi; i++ {
					input1.ReadRow(t, i, arow)
					for j := range crow {
						crow[j] = 0
					}
					for k := 0; k < n; k++ {
						// Row k of input2 is read where it lies, one page
						// segment at a time: no per-row copy.
						aik := arow[k]
						input2.ScanRow(t, k, func(j int, seg []int32) { MACRow(crow[j:], aik, seg) })
					}
					t.Compute(MatMulRowCost(cost, n))
					output.WriteRow(t, i, crow)
				}
				done.Wait(t)
			})
		}
		done.Wait(root)
		// user_done reads the whole product at the root. Under the result
		// protocol the flushes already delivered it here and this is
		// free; under a Table 6 override (write-shared, conventional) the
		// root pages the output back in, paying the same data motion the
		// result protocol performs at the flush.
		row := make([]int32, n)
		for i := 0; i < n; i++ {
			output.ReadRow(root, i, row)
		}
	}

	check := func(res *munin.Result) (uint32, error) {
		// The result protocol flushes the output back to the root; under
		// a Table 6 override (write-shared, conventional) the final
		// copies live at the workers instead, so fall back to any holder.
		out, err := output.Snapshot(res, 0)
		if err != nil {
			out, err = output.SnapshotAny(res)
		}
		if err != nil {
			return 0, fmt.Errorf("apps: output not assembled: %w", err)
		}
		return ChecksumInt32(out), nil
	}
	return &App{Prog: p, Root: root, Check: check, Model: cost}, nil
}
