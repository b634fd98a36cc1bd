package mp

import (
	"fmt"

	"munin/internal/apps"
	"munin/internal/model"
	"munin/internal/sim"
)

// Message tags for the SOR protocol (iteration and direction packed in).
const (
	tagSlice  = 1 // initial distribution
	tagEdgeUp = 2 // my top row, sent to the neighbour above
	tagEdgeDn = 3 // my bottom row, sent to the neighbour below
	tagResult = 4
)

func edgeTag(kind, iter int) uint32 { return uint32(kind)<<20 | uint32(iter) }

// SOR is the hand-coded message-passing Successive Over-Relaxation: the
// grid is distributed once, then each iteration every worker exchanges
// exactly one row with each adjacent section (§4.2: "there is only one
// message exchange between adjacent sections per iteration").
func SOR(c apps.SORConfig) (apps.RunResult, error) {
	if c.Rows <= 0 || c.Cols <= 0 || c.Iters <= 0 || c.Procs <= 0 {
		return apps.RunResult{}, fmt.Errorf("mp: bad SOR config %+v", c)
	}
	if c.Model == (model.CostModel{}) {
		c.Model = model.Default()
	}
	cl := newCluster(c.Model, c.Procs)
	rows, cols, iters, procs := c.Rows, c.Cols, c.Iters, c.Procs

	init := make([][]float32, rows)
	for i := range init {
		init[i] = make([]float32, cols)
		for j := range init[i] {
			init[i][j] = apps.SORInit(i, j)
		}
	}
	final := make([][]float32, rows)

	// worker runs the per-section loop. grid holds rows [lo-1, hi+1)
	// locally (ghost rows at the edges); returns the section's rows.
	worker := func(p *sim.Proc, w int, grid [][]float32) [][]float32 {
		lo, hi := w*rows/procs, (w+1)*rows/procs
		up, down := w-1, w+1
		scratch := make([][]float32, hi-lo)
		for i := range scratch {
			scratch[i] = make([]float32, cols)
		}
		ghost := func(i int) []float32 { return grid[i-(lo-1)] }
		for it := 0; it < iters; it++ {
			for i := lo; i < hi; i++ {
				if i == 0 || i == rows-1 {
					copy(scratch[i-lo], ghost(i))
					continue
				}
				apps.SORStencilRow(scratch[i-lo], ghost(i-1), ghost(i), ghost(i+1))
			}
			for i := lo; i < hi; i++ {
				copy(ghost(i), scratch[i-lo])
				p.Advance(apps.SORRowCost(c.Model, cols))
			}
			// Exchange newly computed edge rows with the neighbours.
			if up >= 0 {
				cl.send(p, w, up, edgeTag(tagEdgeUp, it), float32Bytes(ghost(lo)))
			}
			if down < procs {
				cl.send(p, w, down, edgeTag(tagEdgeDn, it), float32Bytes(ghost(hi-1)))
			}
			need := 0
			if up >= 0 {
				need++
			}
			if down < procs {
				need++
			}
			for r := 0; r < need; r++ {
				wantDn, wantUp := edgeTag(tagEdgeDn, it), edgeTag(tagEdgeUp, it)
				tag, payload := cl.recvMatch(p, w, func(tag uint32) bool {
					return tag == wantDn || tag == wantUp
				})
				if tag == wantDn { // from the neighbour above: its bottom row
					copy(ghost(lo-1), bytesFloat32(payload))
				} else { // from the neighbour below: its top row
					copy(ghost(hi), bytesFloat32(payload))
				}
			}
		}
		return grid[lo-(lo-1) : hi-(lo-1)]
	}

	for w := 1; w < procs; w++ {
		w := w
		cl.sim.Spawn(fmt.Sprintf("mp-sor-worker%d", w), func(p *sim.Proc) {
			lo, hi := w*rows/procs, (w+1)*rows/procs
			raw := bytesFloat32(cl.recv(p, w, tagSlice))
			span := hi + 1 - (lo - 1)
			if hi == rows {
				span = rows - (lo - 1)
			}
			grid := make([][]float32, span+1) // +1 pad for missing bottom ghost
			for i := 0; i < span; i++ {
				grid[i] = raw[i*cols : (i+1)*cols]
			}
			if grid[span] == nil {
				grid[span] = make([]float32, cols)
			}
			section := worker(p, w, grid)
			cl.send(p, w, 0, uint32(tagResult<<20|w), float32Bytes(flatten(section)))
		})
	}
	cl.sim.Spawn("mp-sor-root", func(p *sim.Proc) {
		// Distribute each worker's rows plus ghost rows.
		for w := 1; w < procs; w++ {
			lo, hi := w*rows/procs, (w+1)*rows/procs
			from, to := lo-1, hi+1
			if to > rows {
				to = rows
			}
			cl.send(p, 0, w, tagSlice, float32Bytes(flatten(init[from:to])))
		}
		// Root's own section: rows [0, hi0) plus bottom ghost.
		hi0 := rows / procs
		grid := make([][]float32, hi0+2)
		grid[0] = make([]float32, cols) // unused top ghost (row -1)
		for i := 0; i <= hi0 && i < rows; i++ {
			grid[i+1] = append([]float32(nil), init[i]...)
		}
		if grid[hi0+1] == nil {
			grid[hi0+1] = make([]float32, cols)
		}
		// Shift so ghost() indexing works: worker 0's lo-1 = -1.
		section := workerZero(p, cl, grid, rows, cols, iters, procs, c)
		for i := 0; i < hi0; i++ {
			final[i] = section[i]
		}
		// Collect sections in completion order.
		for r := 1; r < procs; r++ {
			tag, payload := cl.recvMatch(p, 0, func(tag uint32) bool { return tag>>20 == tagResult })
			w := int(tag & 0xfffff)
			lo := w * rows / procs
			vals := bytesFloat32(payload)
			nrows := len(vals) / cols
			for i := 0; i < nrows; i++ {
				final[lo+i] = vals[i*cols : (i+1)*cols]
			}
		}
	})
	if err := cl.run(); err != nil {
		return apps.RunResult{}, err
	}
	flat := make([]float32, 0, rows*cols)
	for i := range final {
		flat = append(flat, final[i]...)
	}
	return cl.result(apps.ChecksumFloat32Sum(flat)), nil
}

// flatten concatenates rows.
func flatten(rows [][]float32) []float32 {
	out := make([]float32, 0, len(rows)*len(rows[0]))
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// workerZero is the root's own section loop (lo = 0, so the grid slice is
// padded with an unused top ghost row).
func workerZero(p *sim.Proc, cl *cluster, grid [][]float32, rows, cols, iters, procs int, c apps.SORConfig) [][]float32 {
	lo, hi := 0, rows/procs
	down := 1
	scratch := make([][]float32, hi-lo)
	for i := range scratch {
		scratch[i] = make([]float32, cols)
	}
	ghost := func(i int) []float32 { return grid[i+1] }
	for it := 0; it < iters; it++ {
		for i := lo; i < hi; i++ {
			if i == 0 || i == rows-1 {
				copy(scratch[i-lo], ghost(i))
				continue
			}
			apps.SORStencilRow(scratch[i-lo], ghost(i-1), ghost(i), ghost(i+1))
		}
		for i := lo; i < hi; i++ {
			copy(ghost(i), scratch[i-lo])
			p.Advance(apps.SORRowCost(c.Model, cols))
		}
		if down < procs {
			cl.send(p, 0, down, edgeTag(tagEdgeDn, it), float32Bytes(ghost(hi-1)))
			want := edgeTag(tagEdgeUp, it)
			_, payload := cl.recvMatch(p, 0, func(tag uint32) bool { return tag == want })
			copy(ghost(hi), bytesFloat32(payload))
		}
	}
	out := make([][]float32, hi-lo)
	for i := range out {
		out[i] = ghost(lo + i)
	}
	return out
}
