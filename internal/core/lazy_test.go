package core

// Core-level tests of the lazy release consistency engine: the
// lock-coupled increment chain that is LRC's defining correctness
// obligation (every acquirer must observe the previous holder's
// writes), and fault injection through the engine's new wire paths —
// dropped diff responses, partitions cutting the requester off, and
// bounded reordering — asserting the deadlock/abort reporting machinery
// stays intact.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"munin/internal/network"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/sim"
	"munin/internal/vm"
	"munin/internal/wire"
)

// lazyCounterRun passes a lock around every node; each holder increments
// a WRITE-SHARED counter word — under the lazy engine each increment is
// visible to the next holder only through the acquire-with-notices grant
// and a demand diff fetch, so the final count proves the happens-before
// chain end to end.
func lazyCounterRun(t *testing.T, tr rt.Transport, procs, rounds int) (map[vm.Addr][]byte, error) {
	t.Helper()
	decl := Decl{Name: "ctr", Start: page(0), Size: 8, Annot: protocol.WriteShared, Synchq: -1}
	sys := NewSystem(Config{Processors: procs, Transport: tr, Lazy: true},
		[]Decl{decl}, []LockDecl{{ID: 1, Home: 0}},
		[]BarrierDecl{{ID: 9, Home: 0, Expected: procs + 1}})
	err := sys.Run(func(root *Thread) {
		for w := 0; w < procs; w++ {
			root.Spawn(w, "worker", func(wt *Thread) {
				for r := 0; r < rounds; r++ {
					wt.AcquireLock(1)
					wt.WriteWord(page(0), wt.ReadWord(page(0))+1)
					wt.ReleaseLock(1)
				}
				wt.WaitAtBarrier(9)
			})
		}
		root.WaitAtBarrier(9)
	})
	return sys.FinalImage(), err
}

// TestLazyLockCounter runs the increment chain on all three transports.
func TestLazyLockCounter(t *testing.T) {
	const procs, rounds = 4, 8
	want := words(procs*rounds, 0)
	for _, name := range []string{"sim", "chan", "mux"} {
		img, err := lazyCounterRun(t, transportFor(t, name, procs), procs, rounds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(img[page(0)], want) {
			t.Errorf("%s counter = %v, want %v", name, img[page(0)], want)
		}
	}
}

// TestLazyLockCounterUnderReorder injects bounded cross-sender delivery
// reordering (per-pair FIFO preserved, as the sockets guarantee): the lazy
// engine's consistency information travels inside the synchronization
// messages themselves and its diffs move by request/response, so unlike
// the eager engine it needs no update acknowledgements to survive this.
func TestLazyLockCounterUnderReorder(t *testing.T) {
	const procs, rounds = 4, 6
	for _, seed := range []int64{7, 42, 1991} {
		tr := transportFor(t, "sim", procs)
		faults := &rt.Faults{ReorderSeed: seed}
		tr.SetFaults(faults)
		img, err := lazyCounterRun(t, tr, procs, rounds)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := words(procs*rounds, 0); !bytes.Equal(img[page(0)], want) {
			t.Errorf("seed %d: counter = %v, want %v", seed, img[page(0)], want)
		}
	}
}

// lazyReaderWriter builds a two-node lazy machine where node 1 writes a
// write-shared object under a lock and node 0 — holding a read copy —
// re-acquires the lock and must pull the diff. faulted configures the
// transport's fault injection before the system is built.
func lazyReaderWriter(t *testing.T, name string, faults *rt.Faults) error {
	t.Helper()
	tr := transportFor(t, name, 2)
	if faults != nil {
		tr.SetFaults(faults)
	}
	decl := Decl{Name: "obj", Start: page(0), Size: 8, Annot: protocol.WriteShared, Synchq: -1}
	sys := NewSystem(Config{Processors: 2, Transport: tr, Lazy: true},
		[]Decl{decl}, []LockDecl{{ID: 1, Home: 0}},
		[]BarrierDecl{{ID: 9, Home: 0, Expected: 3}})
	return sys.Run(func(root *Thread) {
		root.Spawn(0, "reader", func(rt0 *Thread) {
			_ = rt0.ReadWord(page(0)) // hold a base copy
			rt0.WaitAtBarrier(9)
			rt0.AcquireLock(1) // acquire: must pull the writer's diff
			got := rt0.ReadWord(page(0))
			rt0.ReleaseLock(1)
			if got != 77 {
				fail(0, page(0), "lazy read", "diff not applied at acquire")
			}
			rt0.WaitAtBarrier(9)
		})
		root.Spawn(1, "writer", func(wt *Thread) {
			wt.AcquireLock(1)
			wt.WriteWord(page(0), 77)
			wt.ReleaseLock(1)
			wt.WaitAtBarrier(9)
			wt.WaitAtBarrier(9)
		})
		root.WaitAtBarrier(9)
		root.WaitAtBarrier(9)
	})
}

// TestLazyReaderWriterClean sanity-checks the two-node exchange without
// faults on every transport (the fault tests below reuse the workload).
func TestLazyReaderWriterClean(t *testing.T) {
	for _, name := range []string{"sim", "chan", "mux"} {
		if err := lazyReaderWriter(t, name, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestLazyDropDiffRespDeadlock drops every diff response: the acquiring
// reader blocks forever in its refresh, and both the simulator (drained
// event queue) and the live runtime (idle watchdog) must report the
// stuck machine rather than hang.
func TestLazyDropDiffRespDeadlock(t *testing.T) {
	for _, name := range []string{"sim", "chan", "mux"} {
		var dropped atomic.Int32
		err := lazyReaderWriter(t, name, &rt.Faults{Drop: func(src, dst int, m wire.Message) bool {
			if m.Kind() == wire.KindLrcDiffResp {
				dropped.Add(1)
				return true
			}
			return false
		}})
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("%s: Run = %v, want DeadlockError", name, err)
		}
		if dropped.Load() == 0 {
			t.Errorf("%s: no LrcDiffResp was dropped", name)
		}
	}
}

// TestLazyDropFetchRespDeadlock drops every base-copy response: the
// first fault can never install a copy.
func TestLazyDropFetchRespDeadlock(t *testing.T) {
	for _, name := range []string{"sim", "chan"} {
		var dropped atomic.Int32
		err := lazyReaderWriter(t, name, &rt.Faults{Drop: func(src, dst int, m wire.Message) bool {
			if m.Kind() == wire.KindLrcFetchResp {
				dropped.Add(1)
				return true
			}
			return false
		}})
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("%s: Run = %v, want DeadlockError", name, err)
		}
		if dropped.Load() == 0 {
			t.Errorf("%s: no LrcFetchResp was dropped", name)
		}
	}
}

// TestLazyPartitionDeadlock islands the writer mid-run: the lock grant
// (and with it the write notices) can never cross the cut, and the
// machine must report the deadlock on both transport families.
func TestLazyPartitionDeadlock(t *testing.T) {
	for _, name := range []string{"sim", "chan", "mux"} {
		faults := &rt.Faults{Partition: []int{0, 1}}
		err := lazyReaderWriter(t, name, faults)
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("%s: Run = %v, want DeadlockError", name, err)
		}
		if faults.Dropped() == 0 {
			t.Errorf("%s: partition cut nothing", name)
		}
	}
}

// TestLazyInvalidateRefetchSeesOwnWrites: a node that drops its copy
// (Thread.Invalidate) and faults it back in must see its own committed
// writes — the home's served base does not contain them, so the fetcher
// replays its own records from the local store (the regression the
// first review of this engine caught: Applied[self] was stamped as if
// the base already had them).
func TestLazyInvalidateRefetchSeesOwnWrites(t *testing.T) {
	for _, name := range []string{"sim", "chan"} {
		decl := Decl{Name: "obj", Start: page(0), Size: 8, Annot: protocol.WriteShared, Synchq: -1}
		sys := NewSystem(Config{Processors: 2, Transport: transportFor(t, name, 2), Lazy: true},
			[]Decl{decl}, []LockDecl{{ID: 1, Home: 0}}, nil)
		err := sys.Run(func(root *Thread) {
			root.Spawn(1, "worker", func(wt *Thread) {
				wt.AcquireLock(1)
				wt.WriteWord(page(0), 42)
				wt.ReleaseLock(1) // closes the interval
				wt.AcquireLock(1)
				wt.WriteWord(page(0)+4, 7)
				wt.ReleaseLock(1) // second interval; first may coalesce
				wt.Invalidate(page(0))
				if got := wt.ReadWord(page(0)); got != 42 {
					fail(1, page(0), "lazy refetch",
						fmt.Sprintf("own committed write invisible after invalidate: got %d, want 42", got))
				}
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestLazyRuntimeErrorIntact: annotation misuse still aborts with a
// RuntimeError under the lazy engine (the abort machinery is engine
// independent).
func TestLazyRuntimeErrorIntact(t *testing.T) {
	for _, name := range []string{"sim", "chan"} {
		decl := Decl{Name: "ro", Start: page(0), Size: 4, Annot: protocol.ReadOnly, Synchq: -1}
		sys := NewSystem(Config{Processors: 2, Transport: transportFor(t, name, 2), Lazy: true},
			[]Decl{decl}, nil, nil)
		err := sys.Run(func(root *Thread) {
			root.Spawn(1, "writer", func(w *Thread) {
				w.WriteWord(page(0), 1)
			})
		})
		var re *RuntimeError
		if !errors.As(err, &re) {
			t.Fatalf("%s: Run = %v, want RuntimeError", name, err)
		}
	}
}

// TestLazyAdaptiveExcluded: the engines are mutually exclusive at the
// core layer too.
func TestLazyAdaptiveExcluded(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem accepted Lazy+Adaptive")
		}
	}()
	NewSystem(Config{Processors: 2, Lazy: true, Adaptive: true}, nil, nil, nil)
}

// TestLazyAcquireRefreshOrder: three writers dirty the same two lazily
// managed objects, and a node holding copies of both then acquires the
// lock. Its acquire refresh sends exactly one diff request per writer,
// writers ascending, each listing both objects in address order,
// whatever order the writers wrote in.
func TestLazyAcquireRefreshOrder(t *testing.T) {
	const procs = 4
	type req struct {
		dst int
		m   wire.LrcDiffReq
	}
	var reqs []req
	decls := []Decl{
		{Name: "a", Start: page(0), Size: 8, Annot: protocol.WriteShared, Home: 0, Synchq: -1},
		{Name: "b", Start: page(1), Size: 8, Annot: protocol.WriteShared, Home: 0, Synchq: -1},
	}
	sys := NewSystem(Config{Processors: procs, Lazy: true, Trace: func(env network.Envelope) {
		if m, ok := env.Msg.(wire.LrcDiffReq); ok && env.Src == 0 {
			reqs = append(reqs, req{env.Dst, m})
		}
	}}, decls, []LockDecl{{ID: 1, Home: 0}}, []BarrierDecl{{ID: 9, Home: 0, Expected: procs + 1}})
	// Writers take the lock in the order 3, 1, 2, each dirtying the
	// higher object first.
	delay := map[int]rt.Time{3: 0, 1: 1_000_000, 2: 2_000_000}
	err := sys.Run(func(root *Thread) {
		root.Spawn(0, "reader", func(rd *Thread) {
			_ = rd.ReadWord(page(0)) // hold copies of both
			_ = rd.ReadWord(page(1))
			rd.WaitAtBarrier(9)
			rd.Compute(10_000_000) // until every writer has released
			rd.AcquireLock(1)
			a, b := rd.ReadWord(page(0)), rd.ReadWord(page(1))
			rd.ReleaseLock(1)
			if a != 2 || b != 12 {
				fail(0, page(0), "lazy refresh", fmt.Sprintf("read %d and %d, want the last writer's 2 and 12", a, b))
			}
			rd.WaitAtBarrier(9)
		})
		for w := 1; w < procs; w++ {
			root.Spawn(w, "writer", func(wt *Thread) {
				wt.WaitAtBarrier(9)
				wt.Compute(delay[wt.NodeID()])
				wt.AcquireLock(1)
				wt.WriteWord(page(1), uint32(10+wt.NodeID()))
				wt.WriteWord(page(0), uint32(wt.NodeID()))
				wt.ReleaseLock(1)
				wt.WaitAtBarrier(9)
			})
		}
		root.WaitAtBarrier(9)
		root.WaitAtBarrier(9)
	})
	if err != nil {
		t.Fatal(err)
	}
	var writers []int
	for _, r := range reqs {
		writers = append(writers, r.dst)
		if !slices.Equal(r.m.Addrs, []vm.Addr{page(0), page(1)}) {
			t.Errorf("diff request to node %d lists %#x, want both objects in address order", r.dst, r.m.Addrs)
		}
	}
	if want := []int{1, 2, 3}; !slices.Equal(writers, want) {
		t.Errorf("reader sent diff requests to nodes %v, want one per writer in ascending order %v", writers, want)
	}
}
