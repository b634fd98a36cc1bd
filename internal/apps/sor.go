package apps

import (
	"fmt"

	"munin"
	"munin/internal/model"
)

// NewSOR builds the paper's Successive Over-Relaxation (§4.2) as a
// reusable App. The grid is declared
//
//	shared producer_consumer float matrix[ROWS][COLS];
//
// and the programmer does not specify the data partitioning: workers
// read-fault their sections (plus neighbouring edge rows) during the
// first compute phase, write-fault them during the first copy phase, and
// after the first barrier the runtime's copyset determination makes the
// interior pages private and pushes boundary-page diffs only to the
// adjacent sections — one update exchange per iteration, as in the
// hand-coded version.
//
// The scratch-array variant is used (the paper notes scratch and
// red-black work equally well under Munin); the scratch array is
// thread-private, so only the matrix is shared.
//
// PhaseBarrier is part of the Program (it adds a barrier declaration);
// programs meant to run on the live transports must set it.
func NewSOR(c SORConfig) (*App, error) {
	if c.Rows <= 0 || c.Cols <= 0 || c.Iters <= 0 || c.Procs <= 0 {
		return nil, fmt.Errorf("apps: bad SOR config %+v", c)
	}
	if c.Model == (model.CostModel{}) {
		c.Model = model.Default()
	}
	p := munin.NewProgram(c.Procs)

	grid := munin.DeclareMatrix[float32](p, "matrix", c.Rows, c.Cols, munin.ProducerConsumer)
	grid.Init(SORInit)
	bar := p.CreateBarrier(c.Procs + 1)
	// The optional compute→copy barrier (workers only) that makes the
	// iteration data-race-free; see SORConfig.PhaseBarrier.
	var phase munin.Barrier
	if c.PhaseBarrier {
		phase = p.CreateBarrier(c.Procs)
	} else {
		// The single-barrier program is deterministic only under the
		// simulator's cost model; on a live transport it is chaotic
		// relaxation and its grid silently diverges from the sequential
		// reference.
		p.SimulatorOnly("SOR without its phase barrier is chaotic relaxation on a live transport; build the App with SORConfig.PhaseBarrier")
	}

	cost := c.Model
	procs := c.Procs
	rows, cols, iters := c.Rows, c.Cols, c.Iters
	phaseBarrier := c.PhaseBarrier
	root := func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			lo, hi := w*rows/procs, (w+1)*rows/procs
			root.Spawn(w, fmt.Sprintf("sor-worker%d", w), func(t *munin.Thread) {
				up := make([]float32, cols)
				mid := make([]float32, cols)
				down := make([]float32, cols)
				scratch := make([][]float32, hi-lo)
				for i := range scratch {
					scratch[i] = make([]float32, cols)
				}
				for it := 0; it < iters; it++ {
					// Compute phase: new averages into the scratch
					// array; reads of neighbouring sections' edge rows
					// fault in copies the first time and are updated in
					// place thereafter. (Reads cost only fault handling,
					// so every worker's reads complete long before any
					// worker reaches its release — the compute charge
					// lands in the copy phase below.)
					for i := lo; i < hi; i++ {
						grid.ReadRow(t, i, mid)
						if i == 0 || i == rows-1 {
							copy(scratch[i-lo], mid)
							continue
						}
						grid.ReadRow(t, i-1, up)
						grid.ReadRow(t, i+1, down)
						SORStencilRow(scratch[i-lo], up, mid, down)
					}
					if phaseBarrier {
						phase.Wait(t)
					}

					// Copy phase: newly computed values into the
					// matrix; write faults twin the affected pages and
					// queue them on the DUQ.
					for i := lo; i < hi; i++ {
						grid.WriteRow(t, i, scratch[i-lo])
						t.Compute(SORRowCost(cost, cols))
					}
					// One barrier per iteration, as in the paper (§4.2):
					// the flush at the barrier carries edge updates to
					// the adjacent sections.
					bar.Wait(t)
				}
			})
		}
		for it := 0; it < iters; it++ {
			bar.Wait(root)
		}
	}

	check := func(res *munin.Result) (uint32, error) {
		// Assemble the final grid section by section from each worker's
		// node; if a section's pages migrated elsewhere (conventional
		// ping-pong can leave a boundary page owned by the neighbour),
		// take any holder.
		flat := make([]float32, 0, rows*cols)
		for w := 0; w < procs; w++ {
			lo, hi := w*rows/procs, (w+1)*rows/procs
			snap, err := grid.SnapshotRows(res, w, lo, hi)
			if err != nil {
				full, anyErr := grid.SnapshotAny(res)
				if anyErr != nil {
					return 0, fmt.Errorf("apps: SOR snapshot node %d: %w (and no holder: %v)", w, err, anyErr)
				}
				snap = full[lo*cols : hi*cols]
			}
			flat = append(flat, snap...)
		}
		return ChecksumFloat32Sum(flat), nil
	}
	return &App{Prog: p, Root: root, Check: check, Model: cost}, nil
}
