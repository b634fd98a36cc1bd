package munin

import (
	"context"
	"testing"

	"munin/internal/model"
	"munin/internal/sim"
	"munin/internal/wire"
)

// matmulProgram runs a small Munin matrix multiply on procs nodes and
// returns the output matrix read back at the root.
func matmulProgram(t *testing.T, procs, n int, opts ...DeclOption) []int32 {
	t.Helper()
	p, root, c := buildMatmulProgram(procs, n, opts...)
	res, err := p.Run(context.Background(), root)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out, err := c.Snapshot(res, 0)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return out
}

// matmulReference computes the same product sequentially in plain Go.
func matmulReference(n int) []int32 {
	a := make([]int32, n*n)
	b := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = int32(i + j)
			b[i*n+j] = int32(i - j)
		}
	}
	c := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	return c
}

func TestMatrixMultiplyMatchesSequential(t *testing.T) {
	const n = 48
	want := matmulReference(n)
	for _, procs := range []int{1, 2, 4} {
		got := matmulProgram(t, procs, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("procs=%d: element %d = %d, want %d", procs, i, got[i], want[i])
			}
		}
	}
}

func TestMatrixMultiplySingleObjectFewerMessages(t *testing.T) {
	const n = 64 // 16 KB per matrix: 2 pages each
	count := func(opts ...DeclOption) int {
		p, root, _ := buildMatmulProgram(2, n, opts...)
		res, err := p.Run(context.Background(), root)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats().PerKind[wire.KindReadReq]
	}
	paged := count()
	single := count(WithSingleObject())
	if single >= paged {
		t.Errorf("single-object read requests = %d, paged = %d; want fewer", single, paged)
	}
}

func TestSORConvergesLikeSequential(t *testing.T) {
	const (
		rows, cols = 16, 32
		iters      = 4
		procs      = 4
	)
	// Sequential reference: Jacobi-style sweep with a scratch array.
	ref := make([][]float32, rows)
	for i := range ref {
		ref[i] = make([]float32, cols)
		for j := range ref[i] {
			if i == 0 {
				ref[i][j] = 100
			}
		}
	}
	for it := 0; it < iters; it++ {
		next := make([][]float32, rows)
		for i := range next {
			next[i] = append([]float32(nil), ref[i]...)
		}
		for i := 1; i < rows-1; i++ {
			for j := 1; j < cols-1; j++ {
				next[i][j] = (ref[i-1][j] + ref[i+1][j] + ref[i][j-1] + ref[i][j+1]) / 4
			}
		}
		ref = next
	}

	p := NewProgram(procs)
	grid := DeclareMatrix[float32](p, "matrix", rows, cols, ProducerConsumer)
	grid.Init(func(i, j int) float32 {
		if i == 0 {
			return 100
		}
		return 0
	})
	bar := p.CreateBarrier(procs + 1)
	res, err := p.Run(context.Background(), func(root *Thread) {
		for w := 0; w < procs; w++ {
			w := w
			lo, hi := w*rows/procs, (w+1)*rows/procs
			root.Spawn(w, "worker", func(th *Thread) {
				up := make([]float32, cols)
				mid := make([]float32, cols)
				down := make([]float32, cols)
				scratch := make([][]float32, hi-lo)
				for i := range scratch {
					scratch[i] = make([]float32, cols)
				}
				for it := 0; it < iters; it++ {
					for i := lo; i < hi; i++ {
						grid.ReadRow(th, i, mid)
						copy(scratch[i-lo], mid)
						if i == 0 || i == rows-1 {
							continue
						}
						grid.ReadRow(th, i-1, up)
						grid.ReadRow(th, i+1, down)
						for j := 1; j < cols-1; j++ {
							scratch[i-lo][j] = (up[j] + down[j] + mid[j-1] + mid[j+1]) / 4
						}
					}
					bar.Wait(th) // everyone done reading
					for i := lo; i < hi; i++ {
						grid.WriteRow(th, i, scratch[i-lo])
					}
					bar.Wait(th) // copy phase flushed
				}
				bar.Wait(th)
			})
		}
		for it := 0; it < iters; it++ {
			bar.Wait(root)
			bar.Wait(root)
		}
		bar.Wait(root)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Every worker's final view must match the sequential sweep: each
	// worker's rows checked at their owning node.
	for w := 0; w < procs; w++ {
		lo, hi := w*rows/procs, (w+1)*rows/procs
		snap, err := grid.Snapshot(res, w)
		if err != nil {
			t.Fatalf("snapshot node %d: %v", w, err)
		}
		for i := lo; i < hi; i++ {
			for j := 0; j < cols; j++ {
				got := snap[i*cols+j]
				want := ref[i][j]
				if diff := got - want; diff > 1e-4 || diff < -1e-4 {
					t.Fatalf("node %d grid[%d][%d] = %g, want %g", w, i, j, got, want)
				}
			}
		}
	}
}

func TestReductionGlobalMinimum(t *testing.T) {
	const procs = 4
	p := NewProgram(procs)
	min := DeclareVar[uint32](p, "globalmin", Reduction)
	min.Init(1 << 30)
	done := p.CreateBarrier(procs + 1)
	var final uint32
	_, err := p.Run(context.Background(), func(root *Thread) {
		vals := []uint32{900, 250, 600, 400}
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, "worker", func(th *Thread) {
				min.FetchAndMin(th, vals[w])
				done.Wait(th)
			})
		}
		done.Wait(root)
		final = min.Get(root)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 250 {
		t.Errorf("global min = %d, want 250", final)
	}
}

func TestLockProtectedCounter(t *testing.T) {
	const procs = 4
	p := NewProgram(procs)
	lk := p.CreateLock()
	counter := DeclareVar[uint32](p, "counter", Migratory, WithLock(lk))
	done := p.CreateBarrier(procs + 1)
	res, err := p.Run(context.Background(), func(root *Thread) {
		for w := 0; w < procs; w++ {
			root.Spawn(w, "worker", func(th *Thread) {
				for i := 0; i < 3; i++ {
					lk.Acquire(th)
					counter.Set(th, counter.Get(th)+1)
					lk.Release(th)
				}
				done.Wait(th)
			})
		}
		done.Wait(root)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find the final holder's value.
	got, err := counter.SnapshotAny(res)
	if err != nil {
		t.Fatalf("counter has no holder: %v", err)
	}
	if got != 3*procs {
		t.Errorf("counter = %d, want %d", got, 3*procs)
	}
}

func TestStatsPopulated(t *testing.T) {
	p := NewProgram(2)
	x := DeclareVar[uint32](p, "x", ReadOnly)
	x.Init(7)
	res, err := p.Run(context.Background(), func(root *Thread) {
		root.Spawn(1, "r", func(th *Thread) {
			th.Compute(500)
			_ = x.Get(th)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Elapsed <= 0 {
		t.Error("Elapsed not positive")
	}
	if st.Messages == 0 || st.Bytes == 0 {
		t.Error("no traffic recorded")
	}
	if st.PerKind[wire.KindReadReq] != 1 {
		t.Errorf("read requests = %d, want 1", st.PerKind[wire.KindReadReq])
	}
	if st.RootSystem == 0 {
		t.Error("root system time is zero (it served the read)")
	}
}

func TestOverrideOption(t *testing.T) {
	p := NewProgram(2)
	x := Declare[uint32](p, "x", 4, WriteShared)
	var v uint32
	res, err := p.Run(context.Background(), func(root *Thread) {
		root.Spawn(1, "w", func(th *Thread) {
			x.Set(th, 0, 5)
			v = x.Get(th, 0)
		})
	}, WithOverride(Conventional))
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("v = %d, want 5", v)
	}
	// Conventional writes invalidate eagerly: no update batches.
	if res.Stats().PerKind[wire.KindUpdateBatch] != 0 {
		t.Error("override to conventional still produced update batches")
	}
}

// TestFlushVersusLocalStore sweeps one thread's store across another
// thread's release flush of the same node. Thread A writes x[0], computes
// for d and writes x[1]; thread B, on A's node, releases a lock partway
// through, which flushes the node's queue with A's page on it. Every store
// A makes before the closing barrier must reach the reader on the other
// node, wherever in B's flush it lands: a store onto a page the flush has
// already diffed but not yet write-protected would be propagated by nobody.
func TestFlushVersusLocalStore(t *testing.T) {
	cheapFaults := model.Default()
	cheapFaults.FaultTrap, cheapFaults.PageMapOp = sim.Microsecond, sim.Microsecond
	cheapFaults.DirLookup, cheapFaults.CopyPerByte = sim.Microsecond, sim.Nanosecond
	cases := []struct {
		name    string
		annot   Annotation
		writers int // A and B's node; the reader is on the other one
		release Time
		from    Time
		to      Time
		cost    model.CostModel
	}{
		// The writers share the home with the root: the flush updates the
		// reader's copy.
		{"write_shared", WriteShared, 0, 2500 * sim.Microsecond, 0, 8 * sim.Millisecond, model.Default()},
		// The flush sends the diff home and drops the local copy.
		{"result", ResultObject, 1, 20 * sim.Millisecond, 4 * sim.Millisecond, 8 * sim.Millisecond, model.Default()},
		// With a fault cheaper than a diff scan, A's second store faults,
		// twins and queues the page again before B's flush resumes to drop
		// the copy.
		{"result, cheap faults", ResultObject, 1, 20 * sim.Millisecond, 7 * sim.Millisecond, 11 * sim.Millisecond, cheapFaults},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lost, runs := 0, 0
			for d := c.from; d <= c.to; d += 3 * sim.Microsecond {
				p := NewProgram(2)
				x := Declare[uint32](p, "x", 2048, c.annot)
				lock := p.CreateLock()
				start, done := p.CreateBarrier(3), p.CreateBarrier(3)
				var got uint32
				_, err := p.Run(context.Background(), func(root *Thread) {
					root.Spawn(1-c.writers, "reader", func(r *Thread) {
						_ = x.Get(r, 0) // hold a copy, so the flush has somewhere to send
						start.Wait(r)
						done.Wait(r)
						got = x.Get(r, 1)
					})
					root.Spawn(c.writers, "a", func(a *Thread) {
						start.Wait(a)
						x.Set(a, 0, 1)
						a.Compute(d)
						x.Set(a, 1, 2)
						done.Wait(a)
					})
					root.Spawn(c.writers, "b", func(b *Thread) {
						lock.Acquire(b)
						start.Wait(b)
						b.Compute(c.release)
						lock.Release(b)
						done.Wait(b)
					})
				}, WithModel(c.cost))
				if err != nil {
					t.Fatalf("d=%v: %v", d, err)
				}
				runs++
				if got != 2 {
					if lost == 0 {
						t.Errorf("d=%v: reader saw x[1] = %d after the barrier, want 2", d, got)
					}
					lost++
				}
			}
			if lost > 0 {
				t.Errorf("%d of %d interleavings lost the store", lost, runs)
			}
		})
	}
}
