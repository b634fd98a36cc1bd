package core

import (
	"errors"
	"fmt"
	"testing"

	"munin/internal/protocol"
	"munin/internal/vm"
	"munin/internal/wire"
)

// page returns the address of the i-th page of the shared segment.
func page(i int) vm.Addr { return vm.SharedBase + vm.Addr(i*vm.DefaultPageSize) }

// words builds initial contents from 32-bit values.
func words(vals ...uint32) []byte {
	out := make([]byte, len(vals)*4)
	for i, v := range vals {
		out[i*4] = byte(v)
		out[i*4+1] = byte(v >> 8)
		out[i*4+2] = byte(v >> 16)
		out[i*4+3] = byte(v >> 24)
	}
	return out
}

func testSystem(t *testing.T, procs int, decls []Decl, locks []LockDecl, barriers []BarrierDecl) *System {
	t.Helper()
	return NewSystem(Config{Processors: procs}, decls, locks, barriers)
}

func TestReadOnlyReplication(t *testing.T) {
	decl := Decl{Name: "tbl", Start: page(0), Size: 8192, Annot: protocol.ReadOnly, Synchq: -1}
	decl.Init = words(11, 22, 33)
	sys := testSystem(t, 4, []Decl{decl}, nil, nil)
	got := make([]uint32, 3)
	err := sys.Run(func(root *Thread) {
		root.Spawn(2, "reader", func(w *Thread) {
			for i := range got {
				got[i] = w.ReadWord(page(0) + vm.Addr(i*4))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 11 || got[1] != 22 || got[2] != 33 {
		t.Errorf("got %v, want [11 22 33]", got)
	}
	// The copy came from the home via one read miss.
	if sys.Node(2).ReadMisses != 1 {
		t.Errorf("node 2 read misses = %d, want 1", sys.Node(2).ReadMisses)
	}
	// Messages flowed: dir fetch + read req/reply.
	st := sys.Transport().Stats()
	if st.Messages[wire.KindReadReq] != 1 || st.Messages[wire.KindReadReply] != 1 {
		t.Errorf("read traffic = %d/%d, want 1/1",
			st.Messages[wire.KindReadReq], st.Messages[wire.KindReadReply])
	}
}

func TestWriteToReadOnlyIsRuntimeError(t *testing.T) {
	decl := Decl{Name: "tbl", Start: page(0), Size: 8192, Annot: protocol.ReadOnly, Synchq: -1}
	sys := testSystem(t, 2, []Decl{decl}, nil, nil)
	err := sys.Run(func(root *Thread) {
		root.WriteWord(page(0), 5)
	})
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RuntimeError", err)
	}
	if re.Op != "write fault" {
		t.Errorf("op = %q", re.Op)
	}
}

func TestConventionalOwnershipTransfer(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.Conventional, Synchq: -1}
	bar := BarrierDecl{ID: 1, Home: 0, Expected: 2}
	sys := testSystem(t, 2, []Decl{decl}, nil, []BarrierDecl{bar})
	var seen uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "writer", func(w *Thread) {
			w.WriteWord(page(0), 77)
			w.WaitAtBarrier(1)
		})
		root.WaitAtBarrier(1)
		seen = root.ReadWord(page(0)) // read miss served by the new owner
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 77 {
		t.Errorf("seen = %d, want 77", seen)
	}
	st := sys.Transport().Stats()
	if st.Messages[wire.KindOwnReq] != 1 || st.Messages[wire.KindOwnReply] != 1 {
		t.Errorf("ownership traffic %d/%d, want 1/1",
			st.Messages[wire.KindOwnReq], st.Messages[wire.KindOwnReply])
	}
}

func TestConventionalWriteInvalidatesReplicas(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.Conventional, Synchq: -1}
	decl.Init = words(5)
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 3}, {ID: 2, Home: 0, Expected: 3}}
	sys := testSystem(t, 3, []Decl{decl}, nil, bars)
	reads := make([]uint32, 3)
	err := sys.Run(func(root *Thread) {
		for i := 1; i <= 2; i++ {
			i := i
			root.Spawn(i, fmt.Sprintf("w%d", i), func(w *Thread) {
				_ = w.ReadWord(page(0)) // replicate
				w.WaitAtBarrier(1)
				if w.NodeID() == 1 {
					w.WriteWord(page(0), 99) // invalidates node 2 + root copies
				}
				w.WaitAtBarrier(2)
				reads[w.NodeID()] = w.ReadWord(page(0))
			})
		}
		_ = root.ReadWord(page(0))
		root.WaitAtBarrier(1)
		root.WaitAtBarrier(2)
		reads[0] = root.ReadWord(page(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range reads {
		if v != 99 {
			t.Errorf("node %d read %d, want 99", i, v)
		}
	}
	if sys.Transport().Stats().Messages[wire.KindInvalidate] == 0 {
		t.Error("no invalidations sent")
	}
}

func TestMigratoryMovesWithAccess(t *testing.T) {
	decl := Decl{Name: "m", Start: page(0), Size: 8192, Annot: protocol.Migratory, Synchq: -1}
	decl.Init = words(1)
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 2}}
	sys := testSystem(t, 2, []Decl{decl}, nil, bars)
	var final uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "w", func(w *Thread) {
			// First access is a read, but migratory grants write too:
			// the subsequent write must not fault again.
			v := w.ReadWord(page(0))
			w.WriteWord(page(0), v+10)
			w.WaitAtBarrier(1)
		})
		root.WaitAtBarrier(1)
		final = root.ReadWord(page(0)) // migrates back
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 11 {
		t.Errorf("final = %d, want 11", final)
	}
	// Write after migratory read caused no extra fault.
	if f := sys.Node(1).Space().WriteFaults; f != 0 {
		t.Errorf("node 1 write faults = %d, want 0 (read migration grants RW)", f)
	}
	// Two migrations: home→worker on the worker's read, worker→home on
	// the root's read-back.
	st := sys.Transport().Stats()
	if st.Messages[wire.KindMigrateReq] != 2 || st.Messages[wire.KindMigrateReply] != 2 {
		t.Errorf("migrate traffic %d/%d, want 2/2",
			st.Messages[wire.KindMigrateReq], st.Messages[wire.KindMigrateReply])
	}
}

func TestWriteSharedConcurrentWritersMerge(t *testing.T) {
	// Two nodes write disjoint words of the same page without
	// synchronization between the writes; after the barrier both see both
	// (false sharing resolved by twin/diff merge).
	decl := Decl{Name: "ws", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 2}, {ID: 2, Home: 0, Expected: 2}}
	sys := testSystem(t, 2, []Decl{decl}, nil, bars)
	var got0, got1 [2]uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "w1", func(w *Thread) {
			_ = w.ReadWord(page(0)) // replicate before writing
			w.WriteWord(page(0)+4, 200)
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(2)
			got1[0] = w.ReadWord(page(0))
			got1[1] = w.ReadWord(page(0) + 4)
		})
		root.WriteWord(page(0), 100)
		root.WaitAtBarrier(1)
		root.WaitAtBarrier(2)
		got0[0] = root.ReadWord(page(0))
		got0[1] = root.ReadWord(page(0) + 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [2]uint32{100, 200}
	if got0 != want || got1 != want {
		t.Errorf("node0 = %v, node1 = %v, want %v", got0, got1, want)
	}
	if sys.Node(0).Twins == 0 || sys.Node(1).Twins == 0 {
		t.Error("twins were not created for multiple-writer object")
	}
	if sys.Transport().Stats().Messages[wire.KindCopysetQuery] == 0 {
		t.Error("no dynamic copyset determination happened")
	}
}

func TestProducerConsumerStableSharing(t *testing.T) {
	decl := Decl{Name: "pc", Start: page(0), Size: 8192, Annot: protocol.ProducerConsumer, Synchq: -1}
	const iters = 3
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 2}}
	sys := testSystem(t, 2, []Decl{decl}, nil, bars)
	var consumed [iters]uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "consumer", func(w *Thread) {
			// Establish the consumer's copy before the producer's first
			// flush — as SOR's first compute phase does — so the stable
			// sharing relationship includes this node when determined.
			_ = w.ReadWord(page(0))
			w.WaitAtBarrier(1)
			for it := 0; it < iters; it++ {
				w.WaitAtBarrier(1) // producer wrote and flushed
				consumed[it] = w.ReadWord(page(0))
				w.WaitAtBarrier(1) // read done; producer may overwrite
			}
		})
		root.WaitAtBarrier(1) // consumer replicated
		for it := 0; it < iters; it++ {
			root.WriteWord(page(0), uint32(it+1))
			root.WaitAtBarrier(1) // flush on arrival
			root.WaitAtBarrier(1) // consumer finished reading
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for it, v := range consumed {
		if v != uint32(it+1) {
			t.Errorf("iteration %d consumed %d, want %d", it, v, it+1)
		}
	}
	// Stable sharing: the consumer read-faults once (first iteration);
	// afterwards updates are pushed, eliminating read misses (§2.3.2).
	if rm := sys.Node(1).ReadMisses; rm != 1 {
		t.Errorf("consumer read misses = %d, want 1", rm)
	}
	// Copyset determination happens exactly once (S bit caches it).
	if q := sys.Transport().Stats().Messages[wire.KindCopysetQuery]; q != 1 {
		t.Errorf("copyset queries = %d, want 1", q)
	}
}

func TestStableSharingViolationIsRuntimeError(t *testing.T) {
	decl := Decl{Name: "pc", Start: page(0), Size: 8192, Annot: protocol.ProducerConsumer, Synchq: -1}
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 3}}
	sys := testSystem(t, 3, []Decl{decl}, nil, bars)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "consumer", func(w *Thread) {
			w.WaitAtBarrier(1)
			_ = w.ReadWord(page(0))
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(1)
		})
		root.Spawn(2, "latecomer", func(w *Thread) {
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(1)
			// After the sharing pattern is determined, a new consumer
			// violates the stable annotation.
			_ = w.ReadWord(page(0))
		})
		for i := 0; i < 3; i++ {
			root.WriteWord(page(0), uint32(i))
			root.WaitAtBarrier(1)
		}
	})
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want stable-sharing RuntimeError", err)
	}
}

func TestPhaseChangeAllowsNewSharers(t *testing.T) {
	decl := Decl{Name: "pc", Start: page(0), Size: 8192, Annot: protocol.ProducerConsumer, Synchq: -1}
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 3}}
	sys := testSystem(t, 3, []Decl{decl}, nil, bars)
	var late uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "consumer", func(w *Thread) {
			_ = w.ReadWord(page(0)) // establish sharing before first flush
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(1) // producer flushed; pattern determined
			w.WaitAtBarrier(1) // phase changed
			w.WaitAtBarrier(1) // producer rewrote and flushed
		})
		root.Spawn(2, "latecomer", func(w *Thread) {
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(1) // PhaseChange purged the old pattern
			// Join the sharing set for the new phase. Without the
			// PhaseChange this read would be a stable-sharing violation
			// (see the previous test).
			_ = w.ReadWord(page(0))
			w.WaitAtBarrier(1) // producer flushed under the new pattern
			late = w.ReadWord(page(0))
		})
		root.WaitAtBarrier(1) // consumer replicated
		root.WriteWord(page(0), 1)
		root.WaitAtBarrier(1)     // flush + determine stable pattern
		root.PhaseChange(page(0)) // purge sharing relationships
		root.WaitAtBarrier(1)     // nothing enqueued: no determination here
		root.WriteWord(page(0), 2)
		root.WaitAtBarrier(1) // flush under the re-determined pattern
	})
	if err != nil {
		t.Fatal(err)
	}
	if late != 2 {
		t.Errorf("latecomer read %d, want 2", late)
	}
}

func TestResultFlushesOnlyToHome(t *testing.T) {
	decl := Decl{Name: "out", Start: page(0), Size: 8192, Annot: protocol.Result, Synchq: -1}
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 3}}
	sys := testSystem(t, 3, []Decl{decl}, nil, bars)
	var sum uint32
	err := sys.Run(func(root *Thread) {
		for i := 1; i <= 2; i++ {
			i := i
			root.Spawn(i, fmt.Sprintf("w%d", i), func(w *Thread) {
				w.WriteWord(page(0)+vm.Addr(4*i), uint32(10*i))
				w.WaitAtBarrier(1)
			})
		}
		root.WaitAtBarrier(1)
		sum = root.ReadWord(page(0)+4) + root.ReadWord(page(0)+8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 30 {
		t.Errorf("sum = %d, want 30", sum)
	}
	// Result objects never run copyset determination; updates go to the
	// home only, and worker copies die after the flush.
	st := sys.Transport().Stats()
	if st.Messages[wire.KindCopysetQuery] != 0 {
		t.Errorf("copyset queries = %d, want 0 for result objects", st.Messages[wire.KindCopysetQuery])
	}
	for i := 1; i <= 2; i++ {
		if e, ok := sys.Node(i).Dir().Lookup(page(0)); ok && e.Valid {
			t.Errorf("node %d still holds a valid result copy after flush", i)
		}
	}
}

func TestReductionFetchAndOp(t *testing.T) {
	decl := Decl{Name: "min", Start: page(0), Size: 8, Annot: protocol.Reduction, Synchq: -1}
	decl.Init = words(1000, 0)
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 4}}
	sys := testSystem(t, 4, []Decl{decl}, nil, bars)
	var final uint32
	err := sys.Run(func(root *Thread) {
		vals := []uint32{500, 300, 800}
		for i := 1; i <= 3; i++ {
			i := i
			root.Spawn(i, fmt.Sprintf("w%d", i), func(w *Thread) {
				w.FetchAndMin(page(0), 0, vals[i-1])
				w.FetchAndAdd(page(0), 1, 1)
				w.WaitAtBarrier(1)
			})
		}
		root.WaitAtBarrier(1)
		final = root.ReadWord(page(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 300 {
		t.Errorf("min = %d, want 300", final)
	}
	if c := sys.Node(0).Dir(); c != nil {
		e, _ := c.Lookup(page(0))
		if got := uint32(e.Backing[4]); got != 3 {
			t.Errorf("counter = %d, want 3", got)
		}
	}
}

func TestReductionRawWriteIsRuntimeError(t *testing.T) {
	decl := Decl{Name: "r", Start: page(0), Size: 8, Annot: protocol.Reduction, Synchq: -1}
	sys := testSystem(t, 2, []Decl{decl}, nil, nil)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "w", func(w *Thread) {
			w.WriteWord(page(0), 1)
		})
	})
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RuntimeError", err)
	}
}

func TestLockMutualExclusionAcrossNodes(t *testing.T) {
	lock := LockDecl{ID: 1, Home: 0}
	bars := []BarrierDecl{{ID: 2, Home: 0, Expected: 4}}
	counter := Decl{Name: "c", Start: page(0), Size: 8192, Annot: protocol.Migratory, Synchq: -1}
	sys := testSystem(t, 4, []Decl{counter}, []LockDecl{lock}, bars)
	const perThread = 5
	err := sys.Run(func(root *Thread) {
		work := func(w *Thread) {
			for i := 0; i < perThread; i++ {
				w.AcquireLock(1)
				v := w.ReadWord(page(0))
				w.Compute(100) // widen the race window
				w.WriteWord(page(0), v+1)
				w.ReleaseLock(1)
			}
			w.WaitAtBarrier(2)
		}
		for i := 1; i <= 3; i++ {
			root.Spawn(i, fmt.Sprintf("w%d", i), work)
		}
		work(root)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify the count by reading at the root.
	var final uint32
	sysCheck := func() {
		e, ok := sys.Node(0).Dir().Lookup(page(0))
		if !ok {
			t.Fatal("no entry at root")
		}
		_ = e
	}
	sysCheck()
	// Re-run a tiny system step to read the value: simpler to re-read via
	// the last owner's page. Find the valid copy.
	found := false
	for i := 0; i < 4; i++ {
		if e, ok := sys.Node(i).Dir().Lookup(page(0)); ok && e.Valid {
			pg, ok := sys.Node(i).Space().Lookup(page(0))
			if ok {
				final = uint32(pg.Data[0]) | uint32(pg.Data[1])<<8
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no valid copy of counter anywhere")
	}
	if final != 4*perThread {
		t.Errorf("counter = %d, want %d", final, 4*perThread)
	}
}

func TestLockDataAssociationPiggybacksData(t *testing.T) {
	lock := LockDecl{ID: 1, Home: 0}
	obj := Decl{Name: "c", Start: page(0), Size: 8192, Annot: protocol.Migratory, Synchq: 1}
	bars := []BarrierDecl{{ID: 2, Home: 0, Expected: 3}}
	sys := testSystem(t, 3, []Decl{obj}, []LockDecl{lock}, bars)
	sys.AssociateDataAndSynch(1, page(0))
	err := sys.Run(func(root *Thread) {
		work := func(w *Thread) {
			w.AcquireLock(1)
			v := w.ReadWord(page(0))
			w.WriteWord(page(0), v+1)
			w.ReleaseLock(1)
			w.WaitAtBarrier(2)
		}
		root.Spawn(1, "w1", work)
		root.Spawn(2, "w2", work)
		work(root)
	})
	if err != nil {
		t.Fatal(err)
	}
	// With the association, lock grants carry the object: after the
	// first migration, accesses under the lock cause no migrate traffic.
	st := sys.Transport().Stats()
	if st.Messages[wire.KindMigrateReq] > 1 {
		t.Errorf("migrate requests = %d, want ≤1 (data rides lock grants)",
			st.Messages[wire.KindMigrateReq])
	}
}

func TestBarrierReusableAcrossIterations(t *testing.T) {
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 3}}
	sys := testSystem(t, 3, nil, nil, bars)
	const iters = 5
	counts := make([]int, 3)
	err := sys.Run(func(root *Thread) {
		work := func(w *Thread) {
			for i := 0; i < iters; i++ {
				counts[w.NodeID()]++
				w.WaitAtBarrier(1)
			}
		}
		root.Spawn(1, "w1", work)
		root.Spawn(2, "w2", work)
		work(root)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != iters {
			t.Errorf("node %d iterations = %d, want %d", i, c, iters)
		}
	}
}

func TestSingleObjectGranularity(t *testing.T) {
	// A 3-page variable declared as a single object transfers whole on
	// one miss.
	decl := Decl{Name: "big", Start: page(0), Size: 3 * 8192, Annot: protocol.ReadOnly, Synchq: -1}
	init := make([]byte, 3*8192)
	init[0] = 1
	init[2*8192] = 7
	decl.Init = init
	sys := testSystem(t, 2, []Decl{decl}, nil, nil)
	var a, b uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "r", func(w *Thread) {
			a = w.ReadWord(page(0))
			b = w.ReadWord(page(2))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 7 {
		t.Errorf("a=%d b=%d, want 1,7", a, b)
	}
	st := sys.Transport().Stats()
	if st.Messages[wire.KindReadReq] != 1 {
		t.Errorf("read requests = %d, want 1 (single object)", st.Messages[wire.KindReadReq])
	}
	if sys.Node(1).ReadMisses != 1 {
		t.Errorf("read misses = %d, want 1", sys.Node(1).ReadMisses)
	}
}

func TestChangeAnnotationSwitchesProtocol(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.Conventional, Synchq: -1}
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 2}, {ID: 2, Home: 0, Expected: 2}}
	sys := testSystem(t, 2, []Decl{decl}, nil, bars)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "w", func(w *Thread) {
			w.WaitAtBarrier(1)
			w.WriteWord(page(0)+4, 2) // now write-shared: no invalidation
			w.WaitAtBarrier(2)
		})
		root.WriteWord(page(0), 1)
		root.ChangeAnnotation(page(0), protocol.WriteShared)
		root.WaitAtBarrier(1)
		root.WaitAtBarrier(2)
		if got := root.ReadWord(page(0) + 4); got != 2 {
			t.Errorf("got %d, want 2", got)
		}
		if got := root.ReadWord(page(0)); got != 1 {
			t.Errorf("got %d, want 1 (local write preserved)", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := sys.Node(0).Dir().Lookup(page(0))
	if e.Annot != protocol.WriteShared {
		t.Errorf("annotation = %v, want write_shared", e.Annot)
	}
}

func TestPreAcquireEliminatesLaterMiss(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.ReadOnly, Synchq: -1}
	decl.Init = words(42)
	sys := testSystem(t, 2, []Decl{decl}, nil, nil)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "w", func(w *Thread) {
			w.PreAcquire(page(0))
			before := sys.Node(1).Space().ReadFaults
			if v := w.ReadWord(page(0)); v != 42 {
				t.Errorf("read %d, want 42", v)
			}
			if sys.Node(1).Space().ReadFaults != before {
				t.Error("read after PreAcquire still faulted")
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushPropagatesEarly(t *testing.T) {
	decl := Decl{Name: "ws", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 2}, {ID: 2, Home: 0, Expected: 2}}
	sys := testSystem(t, 2, []Decl{decl}, nil, bars)
	var seen uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "r", func(w *Thread) {
			_ = w.ReadWord(page(0)) // hold a copy
			w.WaitAtBarrier(1)
			// No release by the writer yet — but it called Flush.
			seen = w.ReadWord(page(0))
			w.WaitAtBarrier(2)
		})
		root.WriteWord(page(0), 9)
		root.Flush(page(0)) // push without a release
		root.WaitAtBarrier(1)
		root.WaitAtBarrier(2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 9 {
		t.Errorf("seen = %d, want 9 after explicit Flush", seen)
	}
}

func TestOverrideForcesAnnotation(t *testing.T) {
	conv := protocol.Conventional
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
	sys := NewSystem(Config{Processors: 2, Override: &conv}, []Decl{decl}, nil, nil)
	e, ok := sys.Node(0).Dir().Lookup(page(0))
	if !ok || e.Annot != protocol.Conventional {
		t.Errorf("override not applied: %v", e)
	}
}

func TestSystemTimeSeparatedFromUserTime(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.ReadOnly, Synchq: -1}
	sys := testSystem(t, 2, []Decl{decl}, nil, nil)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "w", func(w *Thread) {
			w.Compute(1000) // user
			_ = w.ReadWord(page(0))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if u := sys.NodeUserTime(1); u != 1000 {
		t.Errorf("node 1 user time = %v, want 1000", u)
	}
	if s := sys.NodeSystemTime(1); s == 0 {
		t.Error("node 1 system time = 0, want fault handling time")
	}
	if s := sys.NodeSystemTime(0); s == 0 {
		t.Error("root system time = 0, want serve time")
	}
}
