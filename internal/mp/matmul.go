package mp

import (
	"fmt"

	"munin/internal/apps"
	"munin/internal/model"
	"munin/internal/sim"
)

// Message tags for the matmul protocol.
const (
	tagASlice = iota + 1
	tagBFull
	tagCSlice
)

// MatMul is the hand-coded message-passing Matrix Multiply: the root sends
// each worker its slice of input1 and all of input2 during initialization,
// workers compute independently, and each returns a single result message
// (§4.1: "after initialization each worker thread transmits only a single
// result message back to the root node").
func MatMul(c apps.MatMulConfig) (apps.RunResult, error) {
	if c.N <= 0 || c.Procs <= 0 {
		return apps.RunResult{}, fmt.Errorf("mp: bad matmul config %+v", c)
	}
	if c.Model == (model.CostModel{}) {
		c.Model = model.Default()
	}
	cl := newCluster(c.Model, c.Procs)
	n := c.N

	// The root initializes the inputs (uncharged in both versions — the
	// Munin program's user_init does the same work).
	a := make([]int32, n*n)
	b := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j], b[i*n+j] = apps.MatMulInit(i, j)
		}
	}
	cOut := make([]int32, n*n)

	computeRows := func(p *sim.Proc, lo, hi int, aRows, bFull []int32) []int32 {
		out := make([]int32, (hi-lo)*n)
		for i := lo; i < hi; i++ {
			row := out[(i-lo)*n : (i-lo+1)*n]
			for k := 0; k < n; k++ {
				apps.MACRow(row, aRows[(i-lo)*n+k], bFull[k*n:(k+1)*n])
			}
			p.Advance(apps.MatMulRowCost(c.Model, n))
		}
		return out
	}

	bBytes := int32Bytes(b)
	for w := 1; w < c.Procs; w++ {
		w := w
		lo, hi := w*n/c.Procs, (w+1)*n/c.Procs
		cl.sim.Spawn(fmt.Sprintf("mp-mm-worker%d", w), func(p *sim.Proc) {
			aRows := bytesInt32(cl.recv(p, w, tagASlice))
			bFull := bytesInt32(cl.recv(p, w, tagBFull))
			out := computeRows(p, lo, hi, aRows, bFull)
			cl.send(p, w, 0, uint32(tagCSlice<<8|w), int32Bytes(out))
		})
	}
	cl.sim.Spawn("mp-mm-root", func(p *sim.Proc) {
		// Distribute inputs.
		for w := 1; w < c.Procs; w++ {
			lo, hi := w*n/c.Procs, (w+1)*n/c.Procs
			cl.send(p, 0, w, tagASlice, int32Bytes(a[lo*n:hi*n]))
			cl.send(p, 0, w, tagBFull, bBytes)
		}
		// Compute the root's own slice.
		hi0 := n / c.Procs
		copy(cOut[:hi0*n], computeRows(p, 0, hi0, a[:hi0*n], b))
		// Collect results in whatever order workers finish.
		for i := 1; i < c.Procs; i++ {
			tag, payload := cl.recvMatch(p, 0, func(tag uint32) bool { return tag>>8 == tagCSlice })
			w := int(tag & 0xff)
			lo := w * n / c.Procs
			copy(cOut[lo*n:], bytesInt32(payload))
		}
	})
	if err := cl.sim.Run(); err != nil {
		return apps.RunResult{}, err
	}
	return cl.result(apps.ChecksumInt32(cOut)), nil
}
