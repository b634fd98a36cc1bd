package munin

// Contract tests for the public API: configuration validation (errors
// from Run, never panics), program lifecycle, the extension knobs,
// tracing, and failure reporting.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"munin/internal/network"
	"munin/internal/wire"
)

func expectPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("no panic, expected one mentioning %q", substr)
			return
		}
		if !strings.Contains(fmt.Sprint(r), substr) {
			t.Errorf("panic %v does not mention %q", r, substr)
		}
	}()
	f()
}

// expectRunError asserts Run fails with an error mentioning substr.
func expectRunError(t *testing.T, substr string, p *Program, opts ...RunOption) {
	t.Helper()
	res, err := p.Run(context.Background(), func(root *Thread) {}, opts...)
	if err == nil {
		t.Errorf("Run succeeded, want an error mentioning %q", substr)
		return
	}
	if res != nil {
		t.Error("failed Run returned a non-nil Result")
	}
	if !strings.Contains(err.Error(), substr) {
		t.Errorf("err %v does not mention %q", err, substr)
	}
}

// TestConfigValidationErrors: every configuration problem is an error
// surfaced from Run — processor counts outside 1–MaxProcessors, a
// barrier-tree fanout below 2, an unknown transport or home policy —
// never a panic.
func TestConfigValidationErrors(t *testing.T) {
	t.Run("ZeroProcessors", func(t *testing.T) {
		expectRunError(t, "processors", NewProgram(0))
	})
	t.Run("TooManyProcessors", func(t *testing.T) {
		expectRunError(t, "processors", NewProgram(MaxProcessors+1))
	})
	t.Run("NegativeProcessors", func(t *testing.T) {
		expectRunError(t, "processors", NewProgram(-3))
	})
	t.Run("WithProcessorsOverride", func(t *testing.T) {
		expectRunError(t, "processors", NewProgram(4), WithProcessors(MaxProcessors+1))
	})
	t.Run("UnknownHomePolicy", func(t *testing.T) {
		expectRunError(t, "home policy", NewProgram(2), WithHomePolicy("shuffled"))
	})
	t.Run("BarrierFanoutBelowTwo", func(t *testing.T) {
		expectRunError(t, "fanout", NewProgram(4), WithBarrierTree(1))
	})
	t.Run("UnknownTransport", func(t *testing.T) {
		expectRunError(t, "transport", NewProgram(2), WithTransport("carrier-pigeon"))
	})
	t.Run("ExactCopysetWithAdaptive", func(t *testing.T) {
		expectRunError(t, "adaptive", NewProgram(2), WithExactCopyset(), WithAdaptive())
	})
	t.Run("SimulatorOnlyOnLiveTransport", func(t *testing.T) {
		p := NewProgram(2)
		p.SimulatorOnly("timing-dependent")
		for _, tr := range []string{TransportChan, TransportMux} {
			expectRunError(t, "timing-dependent", p, WithTransport(tr))
		}
		if _, err := p.Run(context.Background(), func(root *Thread) {}); err != nil {
			t.Errorf("simulator run refused: %v", err)
		}
	})
	t.Run("SixteenProcessorsOK", func(t *testing.T) {
		if _, err := NewProgram(16).Run(context.Background(), func(root *Thread) {}); err != nil {
			t.Errorf("16 processors rejected: %v", err)
		}
	})
	t.Run("MaxProcessorsOK", func(t *testing.T) {
		if _, err := NewProgram(MaxProcessors).Run(context.Background(), func(root *Thread) {}); err != nil {
			t.Errorf("%d processors rejected: %v", MaxProcessors, err)
		}
	})
	t.Run("DefaultBarrierFanoutOK", func(t *testing.T) {
		if _, err := NewProgram(4).Run(context.Background(), func(root *Thread) {}, WithBarrierTree(0)); err != nil {
			t.Errorf("default barrier fanout rejected: %v", err)
		}
	})
}

func TestDeclarationAfterRunPanics(t *testing.T) {
	p := NewProgram(1)
	Declare[uint32](p, "x", 4, Conventional)
	if _, err := p.Run(context.Background(), func(root *Thread) {}); err != nil {
		t.Fatal(err)
	}
	expectPanic(t, "declaration after Run", func() { Declare[uint32](p, "y", 4, Conventional) })
	expectPanic(t, "declaration after Run", func() { p.CreateLock() })
	expectPanic(t, "declaration after Run", func() { p.CreateBarrier(2) })
}

func TestZeroSizeDeclarationPanics(t *testing.T) {
	p := NewProgram(2)
	expectPanic(t, "size", func() { Declare[uint32](p, "x", 0, Conventional) })
}

// TestInitRejectsOversizedData: initial contents longer than the
// declared variable are rejected instead of silently spilling into the
// following declaration's pages.
func TestInitRejectsOversizedData(t *testing.T) {
	p := NewProgram(2)
	x := Declare[uint32](p, "x", 4, Conventional)
	Declare[uint32](p, "y", 4, Conventional) // the would-be spill victim
	expectPanic(t, "initial values", func() { x.Init(1, 2, 3, 4, 5) })
}

func TestSpawnOnInvalidNodePanics(t *testing.T) {
	p := NewProgram(2)
	_, err := p.Run(context.Background(), func(root *Thread) {
		expectPanic(t, "invalid node", func() { root.Spawn(5, "bad", func(*Thread) {}) })
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockReported(t *testing.T) {
	p := NewProgram(2)
	bar := p.CreateBarrier(3) // only 2 threads will ever arrive
	_, err := p.Run(context.Background(), func(root *Thread) {
		root.Spawn(1, "stuck", func(tt *Thread) { bar.Wait(tt) })
		bar.Wait(root)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want a deadlock report", err)
	}
}

func TestRuntimeErrorSurfacesFromRun(t *testing.T) {
	p := NewProgram(2)
	ro := Declare[uint32](p, "ro", 4, ReadOnly)
	_, err := p.Run(context.Background(), func(root *Thread) {
		ro.Set(root, 0, 1)
	})
	if err == nil {
		t.Fatal("write to read_only succeeded")
	}
	if !strings.Contains(err.Error(), "not writable") {
		t.Errorf("err = %v, want the not-writable runtime error", err)
	}
}

func TestTraceObservesEveryMessage(t *testing.T) {
	var traced int
	var kinds = map[wire.Kind]int{}
	p := NewProgram(2)
	data := Declare[uint32](p, "d", 2048, WriteShared)
	bar := p.CreateBarrier(2)
	res, err := p.Run(context.Background(), func(root *Thread) {
		root.Spawn(1, "reader", func(tt *Thread) {
			_ = data.Get(tt, 0)
			bar.Wait(tt)
		})
		bar.Wait(root)
	}, WithTrace(func(env network.Envelope) {
		traced++
		kinds[env.Msg.Kind()]++
		if env.Bytes <= 0 || env.DeliveredAt < env.SentAt {
			t.Errorf("malformed envelope %+v", env)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if traced != st.Messages {
		t.Errorf("traced %d messages, stats report %d", traced, st.Messages)
	}
	if kinds[wire.KindReadReq] == 0 || kinds[wire.KindBarrierArrive] == 0 {
		t.Errorf("expected read and barrier traffic, got %v", kinds)
	}
}

// buildMatmulProgram declares a small matrix multiply and returns the
// program, its root function and the output matrix — the canonical
// reusable program the Program/Run tests execute repeatedly.
func buildMatmulProgram(procs, n int, opts ...DeclOption) (*Program, func(*Thread), *Matrix[int32]) {
	p := NewProgram(procs)
	a := DeclareMatrix[int32](p, "input1", n, n, ReadOnly, opts...)
	b := DeclareMatrix[int32](p, "input2", n, n, ReadOnly, opts...)
	c := DeclareMatrix[int32](p, "output", n, n, ResultObject)
	a.Init(func(i, j int) int32 { return int32(i + j) })
	b.Init(func(i, j int) int32 { return int32(i - j) })
	done := p.CreateBarrier(procs + 1)
	root := func(root *Thread) {
		for w := 0; w < procs; w++ {
			w := w
			lo, hi := w*n/procs, (w+1)*n/procs
			root.Spawn(w, "worker", func(th *Thread) {
				arow := make([]int32, n)
				brow := make([]int32, n)
				crow := make([]int32, n)
				for i := lo; i < hi; i++ {
					a.ReadRow(th, i, arow)
					for k := range crow {
						crow[k] = 0
					}
					for k := 0; k < n; k++ {
						b.ReadRow(th, k, brow)
						aik := arow[k]
						for j := 0; j < n; j++ {
							crow[j] += aik * brow[j]
						}
					}
					c.WriteRow(th, i, crow)
				}
				done.Wait(th)
			})
		}
		done.Wait(root)
	}
	return p, root, c
}

// TestMachineOptionMatrix: the extension knobs compose; each combination
// computes the same matmul product — and every combination executes the
// SAME Program value, once per option set.
func TestMachineOptionMatrix(t *testing.T) {
	const n, procs = 32, 4
	want := matmulReference(n)
	prog, root, c := buildMatmulProgram(procs, n)
	for _, run := range []struct {
		name string
		opts []RunOption
	}{
		{"baseline", nil},
		{"exact-copyset", []RunOption{WithExactCopyset()}},
		{"acked-flush", []RunOption{WithAwaitUpdateAcks()}},
		{"barrier-tree", []RunOption{WithBarrierTree(0)}},
		{"barrier-tree-2", []RunOption{WithBarrierTree(2)}},
		{"pending-updates", []RunOption{WithPendingUpdates()}},
		{"all", []RunOption{WithPendingUpdates(), WithBarrierTree(0), WithExactCopyset()}},
	} {
		res, err := prog.Run(context.Background(), root, run.opts...)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		got, err := c.Snapshot(res, 0)
		if err != nil {
			got, err = c.SnapshotAny(res)
		}
		if err != nil {
			t.Fatalf("%s: snapshot: %v", run.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: element %d = %d, want %d", run.name, i, got[i], want[i])
				break
			}
		}
	}
}

// TestExactCopysetIsTheLiveDefault: an eager release asks the object's
// home for its copyset on the live transports without being told to; on
// the simulator it broadcasts, as the prototype did, unless the run opts
// in with WithExactCopyset.
func TestExactCopysetIsTheLiveDefault(t *testing.T) {
	const procs = 3
	p := NewProgram(procs)
	x := Declare[uint32](p, "x", 2048, WriteShared)
	bar := p.CreateBarrier(procs + 1)
	root := func(root *Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, "writer", func(th *Thread) {
				x.Set(th, w, uint32(w+1))
				bar.Wait(th)
			})
		}
		bar.Wait(root)
	}
	for _, c := range []struct {
		name  string
		opts  []RunOption
		exact bool
	}{
		{"sim", nil, false},
		{"sim+exact", []RunOption{WithExactCopyset()}, true},
		{"chan", []RunOption{WithTransport(TransportChan)}, true},
		{"mux", []RunOption{WithTransport(TransportMux)}, true},
	} {
		res, err := p.Run(context.Background(), root, c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		kinds := res.Stats().PerKind
		queries, lookups := kinds[wire.KindCopysetQuery], kinds[wire.KindCopysetLookup]
		if c.exact && (queries != 0 || lookups == 0) {
			t.Errorf("%s: %d queries, %d lookups; want home-directed lookups only", c.name, queries, lookups)
		}
		if !c.exact && (queries == 0 || lookups != 0) {
			t.Errorf("%s: %d queries, %d lookups; want the broadcast only", c.name, queries, lookups)
		}
	}
}

// TestExactCopysetLockGrantCarriesNoCopy: a write_shared variable
// associated with a lock does not ride the lock's grants under
// home-directed copysets. A copy installed from a grant is one its home
// never handed out, so no later writer's lookup would name it: here node
// 1's write outside the lock would never reach node 2, which would read
// its grant-time copy.
func TestExactCopysetLockGrantCarriesNoCopy(t *testing.T) {
	p := NewProgram(3)
	l := p.CreateLock()
	x := DeclareVar[uint32](p, "x", WriteShared, WithLock(l))
	bar := p.CreateBarrier(3)
	for _, c := range []struct {
		name string
		opt  RunOption
	}{
		{"sim+exact", WithExactCopyset()},
		{"chan", WithTransport(TransportChan)},
		{"mux", WithTransport(TransportMux)},
	} {
		var got uint32
		_, err := p.Run(context.Background(), func(root *Thread) {
			root.Spawn(1, "writer", func(th *Thread) {
				bar.Wait(th)
				x.Set(th, 42) // outside the lock
				bar.Wait(th)
			})
			root.Spawn(2, "acquirer", func(th *Thread) {
				l.Acquire(th) // the grant comes from node 0, x's home
				l.Release(th)
				bar.Wait(th)
				bar.Wait(th)
				got = x.Get(th)
			})
			bar.Wait(root)
			bar.Wait(root)
		}, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != 42 {
			t.Errorf("%s: node 2 reads %d after the barrier, want node 1's 42", c.name, got)
		}
	}
}

// TestInvalidateSharedEndToEnd runs the extension protocol through the
// public API: a producer's delayed invalidations force the consumer to
// re-fault, and the values still flow correctly.
func TestInvalidateSharedEndToEnd(t *testing.T) {
	p := NewProgram(3)
	data := Declare[uint32](p, "d", 2048, InvalidateShared)
	bar := p.CreateBarrier(3 + 1)
	var got [3]uint32
	_, err := p.Run(context.Background(), func(root *Thread) {
		for w := 0; w < 3; w++ {
			w := w
			root.Spawn(w, "node", func(tt *Thread) {
				_ = data.Get(tt, 0)
				bar.Wait(tt)
				if w == 0 {
					data.Set(tt, 0, 42)
				}
				bar.Wait(tt)
				got[w] = data.Get(tt, 0)
				bar.Wait(tt)
			})
		}
		for i := 0; i < 3; i++ {
			bar.Wait(root)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for w, v := range got {
		if v != 42 {
			t.Errorf("node %d sees %d, want 42", w, v)
		}
	}
}

// TestSnapshotAnyFindsWorkerCopies: after a run whose final copies live
// at the workers, SnapshotAny assembles the variable from any holders.
func TestSnapshotAnyFindsWorkerCopies(t *testing.T) {
	const n, procs = 16, 4
	p := NewProgram(procs)
	m := DeclareMatrix[int32](p, "m", n, n, WriteShared)
	bar := p.CreateBarrier(procs + 1)
	res, err := p.Run(context.Background(), func(root *Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, "writer", func(tt *Thread) {
				row := make([]int32, n)
				for i := w * n / procs; i < (w+1)*n/procs; i++ {
					for j := range row {
						row[j] = int32(i*100 + j)
					}
					m.WriteRow(tt, i, row)
				}
				bar.Wait(tt)
			})
		}
		bar.Wait(root)
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.SnapshotAny(res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got[i*n+j] != int32(i*100+j) {
				t.Fatalf("element (%d,%d) = %d, want %d", i, j, got[i*n+j], i*100+j)
			}
		}
	}
}

// TestAnnotationErrorsAreDescriptive: every misuse error names the
// operation and the address.
func TestAnnotationErrorsAreDescriptive(t *testing.T) {
	p := NewProgram(2)
	red := Declare[uint32](p, "red", 1, Reduction)
	_, err := p.Run(context.Background(), func(root *Thread) {
		red.Set(root, 0, 1) // raw write to a reduction object
	})
	if err == nil {
		t.Fatal("raw write to a reduction object succeeded")
	}
	if !strings.Contains(err.Error(), "Fetch-and-") {
		t.Errorf("err %v does not explain the reduction constraint", err)
	}
}

// TestAdaptiveAnnotationRequiresEngine: declaring munin.Adaptive without
// WithAdaptive is a configuration error reported by Run.
func TestAdaptiveAnnotationRequiresEngine(t *testing.T) {
	p := NewProgram(2)
	Declare[uint32](p, "x", 4, Adaptive)
	expectRunError(t, "adaptive", p)
}

// TestAdaptiveEndToEnd: an un-annotated (munin.Adaptive) producer-consumer
// exchange converges to the producer_consumer protocol, reports the
// switch in the Result, and computes the right values.
func TestAdaptiveEndToEnd(t *testing.T) {
	const procs, phases = 4, 8
	p := NewProgram(procs)
	data := Declare[uint32](p, "data", 512, Adaptive)
	bar := p.CreateBarrier(procs + 1)
	var sum uint32
	res, err := p.Run(context.Background(), func(root *Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, "worker", func(th *Thread) {
				for ph := 0; ph < phases; ph++ {
					if w == 0 {
						for i := 0; i < 8; i++ {
							data.Set(th, i, uint32(ph*100+i))
						}
					}
					bar.Wait(th)
					if w == 1 {
						for i := 0; i < 8; i++ {
							sum += data.Get(th, i)
						}
					}
					bar.Wait(th)
				}
			})
		}
		for ph := 0; ph < 2*phases; ph++ {
			bar.Wait(root)
		}
	}, WithAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	var want uint32
	for ph := 0; ph < phases; ph++ {
		for i := 0; i < 8; i++ {
			want += uint32(ph*100 + i)
		}
	}
	if sum != want {
		t.Errorf("consumer sum = %d, want %d", sum, want)
	}
	st := res.Stats()
	if st.AdaptSwitches == 0 {
		t.Error("no adaptive switches committed for an un-annotated producer-consumer object")
	}
	if a := res.FinalAnnotations()[data.Base()]; a != ProducerConsumer {
		t.Errorf("converged to %v, want producer_consumer", a)
	}
	if st.PerKind[wire.KindAdaptCommit] == 0 {
		t.Error("no adapt-commit traffic recorded")
	}
}
