package apps

// Branch-and-bound travelling salesman — the third workload. The paper's
// evaluation covers Matrix Multiply and SOR; TSP is the canonical
// irregular workload from the wider Munin literature (the PPoPP '90
// design paper's motivating studies), and it exercises the protocols the
// regular grids do not stress: a lock-protected migratory work counter
// for dynamic load balance, a reduction object holding the global bound
// (updated with Fetch_and_min from every worker), and a read-only
// distance matrix.

import (
	"fmt"

	"munin"
	"munin/internal/model"
	"munin/internal/sim"
)

// TSPConfig parameterizes a TSP run.
type TSPConfig struct {
	// Procs is the number of processors (workers), 1-16.
	Procs int
	// Cities is the tour length (11 keeps the search in the thousands of
	// expanded nodes once bounded).
	Cities int
	// Model is the cost model (zero = default).
	Model model.CostModel
}

// TSPDist gives the deterministic distance matrix all versions share.
func TSPDist(i, j int) int32 {
	if i == j {
		return 0
	}
	d := int32((i*i*7+j*j*13+i*j*3)%97 + 1)
	return d
}

// tspWork enumerates the work units: the second tour city (the first is
// fixed at 0). Each unit is an independent subtree.
func tspWork(cities int) int { return cities - 1 }

// tspExpand runs depth-first branch and bound from a prefix, pruning
// against bound. It returns the best completed tour cost in the subtree
// (or keeps best) and the number of nodes expanded.
func tspExpand(dist func(i, j int) int32, cities int, visited []bool, path []int, cost int64,
	bound func() int64, improve func(int64)) (expanded int) {
	expanded = 1
	if cost >= bound() {
		return expanded
	}
	if len(path) == cities {
		total := cost + int64(dist(path[len(path)-1], path[0]))
		if total < bound() {
			improve(total)
		}
		return expanded
	}
	last := path[len(path)-1]
	for next := 1; next < cities; next++ {
		if visited[next] {
			continue
		}
		visited[next] = true
		expanded += tspExpand(dist, cities, visited, append(path, next),
			cost+int64(dist(last, next)), bound, improve)
		visited[next] = false
	}
	return expanded
}

// TSPReference solves the instance sequentially (exact optimum).
func TSPReference(cities int) int64 {
	best := int64(1) << 40
	visited := make([]bool, cities)
	visited[0] = true
	for second := 1; second < cities; second++ {
		visited[second] = true
		tspExpand(TSPDist, cities, visited, []int{0, second}, int64(TSPDist(0, second)),
			func() int64 { return best }, func(v int64) { best = v })
		visited[second] = false
	}
	return best
}

// NewTSP builds the branch-and-bound search as a reusable App:
//
//	shared read_only  int dist[C][C];
//	shared reduction  int bound;          // Fetch_and_min
//	shared migratory  int nextwork;       // protected by the work lock
func NewTSP(c TSPConfig) (*App, error) {
	if c.Cities < 4 || c.Cities > 16 || c.Procs <= 0 {
		return nil, fmt.Errorf("apps: bad TSP config %+v", c)
	}
	if c.Model == (model.CostModel{}) {
		c.Model = model.Default()
	}
	prog := munin.NewProgram(c.Procs)

	cities := c.Cities
	dist := munin.DeclareMatrix[int32](prog, "dist", cities, cities, munin.ReadOnly)
	dist.Init(func(i, j int) int32 { return TSPDist(i, j) })
	bound := munin.DeclareVar[int32](prog, "bound", munin.Reduction)
	bound.Init(1 << 30)
	wl := prog.CreateLock()
	next := munin.DeclareVar[uint32](prog, "nextwork", munin.Migratory, munin.WithLock(wl))
	done := prog.CreateBarrier(c.Procs + 1)

	cost := c.Model
	procs := c.Procs
	root := func(root *munin.Thread) {
		for p := 0; p < procs; p++ {
			p := p
			root.Spawn(p, fmt.Sprintf("tsp-worker%d", p), func(t *munin.Thread) {
				// Page the distance matrix in once.
				row := make([]int32, cities)
				local := make([][]int32, cities)
				for i := 0; i < cities; i++ {
					dist.ReadRow(t, i, row)
					local[i] = append([]int32(nil), row...)
				}
				d := func(i, j int) int32 { return local[i][j] }
				visited := make([]bool, cities)
				visited[0] = true
				for {
					wl.Acquire(t)
					unit := int(next.Get(t))
					next.Set(t, uint32(unit+1))
					wl.Release(t)
					if unit >= tspWork(cities) {
						break
					}
					second := unit + 1
					visited[second] = true
					// The incumbent is re-read from the reduction object
					// per expansion batch: cache it locally and refresh
					// through Fetch_and_min's return value on improvement.
					incumbent := int64(bound.Get(t))
					expanded := tspExpand(d, cities, visited, []int{0, second},
						int64(d(0, second)),
						func() int64 { return incumbent },
						func(v int64) {
							old := int64(bound.FetchAndMin(t, int32(v)))
							if old < v {
								v = old
							}
							incumbent = v
						})
					visited[second] = false
					t.Compute(sim.Time(expanded) * cost.MatMulOp * 8)
				}
				done.Wait(t)
			})
		}
		done.Wait(root)
	}

	check := func(res *munin.Result) (uint32, error) {
		best, err := bound.Snapshot(res, 0)
		if err != nil {
			return 0, fmt.Errorf("apps: TSP bound unavailable at root: %w", err)
		}
		return uint32(best), nil
	}
	return &App{Prog: prog, Root: root, Check: check, Model: cost}, nil
}
