package core

// Tests for the features beyond the prototype's defaults: the
// delayed-invalidation protocol (A1), the improved copyset determination
// (A4), non-blocking versus acknowledged flushes, and regressions around
// single-writer read service.

import (
	"testing"

	"munin/internal/protocol"
	"munin/internal/wire"
)

// TestServeReadDowngradesSingleWriterOwner is the regression test for the
// stale-replica bug: after a conventional owner serves a read, its own
// mapping must drop write access so the next local write faults and
// invalidates the replica.
func TestServeReadDowngradesSingleWriterOwner(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.Conventional, Synchq: -1}
	bar := BarrierDecl{ID: 1000, Home: 0, Expected: 2}
	sys := testSystem(t, 2, []Decl{decl}, nil, []BarrierDecl{bar})
	var second uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "reader", func(w *Thread) {
			if v := w.ReadWord(page(0)); v != 7 {
				t.Errorf("first read = %d, want 7", v)
			}
			w.WaitAtBarrier(1000) // root writes 8 after this
			w.WaitAtBarrier(1000)
			second = w.ReadWord(page(0))
		})
		root.WriteWord(page(0), 7)
		root.WaitAtBarrier(1000)
		root.WriteWord(page(0), 8) // must invalidate the replica
		root.WaitAtBarrier(1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if second != 8 {
		t.Errorf("reader saw %d after the second write, want 8 (stale replica)", second)
	}
	st := sys.Transport().Stats()
	if st.Messages[wire.KindInvalidate] == 0 {
		t.Error("second write sent no invalidation")
	}
}

// TestInvalidateSharedDelaysInvalidations exercises the A1 extension: the
// invalidations are buffered in the DUQ and sent at the release, and a
// consumer re-faults afterwards.
func TestInvalidateSharedDelaysInvalidations(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.InvalidateShared, Synchq: -1}
	decl.Init = words(1)
	bar := BarrierDecl{ID: 1000, Home: 0, Expected: 2}
	sys := testSystem(t, 2, []Decl{decl}, nil, []BarrierDecl{bar})
	var after uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "consumer", func(w *Thread) {
			if v := w.ReadWord(page(0)); v != 1 {
				t.Errorf("initial read = %d", v)
			}
			w.WaitAtBarrier(1000)
			w.WaitAtBarrier(1000) // root's writes flushed as invalidation
			after = w.ReadWord(page(0))
		})
		root.WaitAtBarrier(1000) // consumer holds a copy now
		root.WriteWord(page(0), 42)
		root.WriteWord(page(0)+4, 43) // multiple writes, one delayed invalidation
		root.WaitAtBarrier(1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 42 {
		t.Errorf("consumer read %d after invalidation, want 42", after)
	}
	st := sys.Transport().Stats()
	if st.Messages[wire.KindInvalidate] != 1 {
		t.Errorf("invalidations = %d, want exactly 1 (delayed and batched)", st.Messages[wire.KindInvalidate])
	}
	if st.Messages[wire.KindUpdateBatch] != 0 {
		t.Errorf("update batches = %d, want 0 under the invalidate protocol", st.Messages[wire.KindUpdateBatch])
	}
	// The consumer read-faulted twice: initially and after invalidation.
	if sys.Node(1).ReadMisses != 2 {
		t.Errorf("consumer read misses = %d, want 2", sys.Node(1).ReadMisses)
	}
}

// TestInvalidateSharedDirtyCopyPropagates: a dirty multiple-writer copy
// that receives an invalidation first propagates its pending updates
// (§3.3), so no modification is lost.
func TestInvalidateSharedDirtyCopyPropagates(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.InvalidateShared, Synchq: -1}
	bar := BarrierDecl{ID: 1000, Home: 0, Expected: 2}
	bar2 := BarrierDecl{ID: 1001, Home: 0, Expected: 2}
	sys := testSystem(t, 2, []Decl{decl}, nil, []BarrierDecl{bar, bar2})
	var w0, w1 uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "peer", func(w *Thread) {
			w.WriteWord(page(0)+4, 200) // dirty copy at node 1
			w.WaitAtBarrier(1000)       // flush: invalidations cross; node 1's
			// dirty copy pushes its pending update to the releaser
			w.WaitAtBarrier(1001)
		})
		root.WriteWord(page(0), 100)
		root.WaitAtBarrier(1000)
		w0 = root.ReadWord(page(0))
		w1 = root.ReadWord(page(0) + 4)
		root.WaitAtBarrier(1001)
	})
	if err != nil {
		t.Fatal(err)
	}
	if w0 != 100 || w1 != 200 {
		t.Errorf("root sees (%d, %d), want (100, 200) — a write was lost", w0, w1)
	}
}

// TestExactCopysetUsesHomeDirectedMessages: with the improved algorithm a
// flush asks the home instead of broadcasting.
func TestExactCopysetUsesHomeDirectedMessages(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
	decl.Init = words(5)
	bar := BarrierDecl{ID: 1000, Home: 0, Expected: 3}
	sys := NewSystem(Config{Processors: 3, ExactCopyset: true}, []Decl{decl}, nil, []BarrierDecl{bar})
	var seen [3]uint32
	err := sys.Run(func(root *Thread) {
		for w := 1; w <= 2; w++ {
			w := w
			root.Spawn(w, "consumer", func(tt *Thread) {
				if v := tt.ReadWord(page(0)); v != 5 {
					t.Errorf("node %d initial read = %d", w, v)
				}
				tt.WaitAtBarrier(1000)
				tt.WaitAtBarrier(1000)
				seen[w] = tt.ReadWord(page(0))
			})
		}
		root.WaitAtBarrier(1000)
		root.WriteWord(page(0), 6)
		root.WaitAtBarrier(1000) // flush with home-directed determination
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen[1] != 6 || seen[2] != 6 {
		t.Errorf("consumers saw %v, want updated 6s", seen)
	}
	st := sys.Transport().Stats()
	if st.Messages[wire.KindCopysetQuery] != 0 {
		t.Errorf("broadcast queries = %d, want 0 in exact mode", st.Messages[wire.KindCopysetQuery])
	}
	// The writer IS the home here (root node owns the object), so the
	// determination is free: no lookups either.
	if st.Messages[wire.KindCopysetLookup] != 0 {
		t.Errorf("lookups = %d, want 0 when the home flushes its own object", st.Messages[wire.KindCopysetLookup])
	}
	if st.Messages[wire.KindUpdateBatch] != 2 {
		t.Errorf("updates = %d, want 2", st.Messages[wire.KindUpdateBatch])
	}
}

// TestExactCopysetRemoteWriterLooksUpHome: a non-home writer sends one
// CopysetLookup to the home and gets the reader set back.
func TestExactCopysetRemoteWriterLooksUpHome(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
	decl.Init = words(5)
	bar := BarrierDecl{ID: 1000, Home: 0, Expected: 3}
	sys := NewSystem(Config{Processors: 3, ExactCopyset: true}, []Decl{decl}, nil, []BarrierDecl{bar})
	var rootSees uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "writer", func(w *Thread) {
			w.WaitAtBarrier(1000) // root has a copy (it is home with backing)
			w.WriteWord(page(0), 77)
			w.WaitAtBarrier(1000) // flush: lookup at home, update to holders
		})
		root.Spawn(2, "reader", func(w *Thread) {
			if v := w.ReadWord(page(0)); v != 5 {
				t.Errorf("reader initial = %d", v)
			}
			w.WaitAtBarrier(1000)
			w.WaitAtBarrier(1000)
			if v := w.ReadWord(page(0)); v != 77 {
				t.Errorf("reader final = %d, want 77", v)
			}
		})
		if v := root.ReadWord(page(0)); v != 5 {
			t.Errorf("root initial = %d", v)
		}
		root.WaitAtBarrier(1000)
		root.WaitAtBarrier(1000)
		rootSees = root.ReadWord(page(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rootSees != 77 {
		t.Errorf("root sees %d, want 77", rootSees)
	}
	st := sys.Transport().Stats()
	if st.Messages[wire.KindCopysetLookup] != 1 || st.Messages[wire.KindCopysetInfo] != 1 {
		t.Errorf("lookup/info = %d/%d, want 1/1",
			st.Messages[wire.KindCopysetLookup], st.Messages[wire.KindCopysetInfo])
	}
	if st.Messages[wire.KindCopysetQuery] != 0 {
		t.Errorf("broadcast queries = %d, want 0", st.Messages[wire.KindCopysetQuery])
	}
}

// TestExactCopysetStaleUpdateIgnored: when the home's tracked copyset
// overshoots (a reader dropped its copy silently), the spurious update is
// ignored rather than a runtime error.
func TestExactCopysetStaleUpdateIgnored(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
	decl.Init = words(5)
	bar := BarrierDecl{ID: 1000, Home: 0, Expected: 3}
	sys := NewSystem(Config{Processors: 3, ExactCopyset: true}, []Decl{decl}, nil, []BarrierDecl{bar})
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "writer", func(w *Thread) {
			w.WaitAtBarrier(1000)
			w.WriteWord(page(0), 77)
			w.WaitAtBarrier(1000)
		})
		root.Spawn(2, "dropper", func(w *Thread) {
			_ = w.ReadWord(page(0)) // register at the home's copyset
			// Drop the copy without telling the home: after this the
			// home still believes node 2 holds one. (A plain unmap, not
			// the Invalidate call, which would notify.)
			e, _ := sys.Node(2).dir.Lookup(page(0))
			sys.Node(2).dropObject(w.proc, e)
			w.WaitAtBarrier(1000)
			w.WaitAtBarrier(1000)
			if v := w.ReadWord(page(0)); v != 77 {
				t.Errorf("dropper re-read = %d, want 77", v)
			}
		})
		_ = root.ReadWord(page(0))
		root.WaitAtBarrier(1000)
		root.WaitAtBarrier(1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Node(2).StaleUpdates; got != 1 {
		t.Errorf("stale updates at node 2 = %d, want 1", got)
	}
}

// TestFlushWithoutAcksStillOrdersBeforeRelease: the default non-blocking
// flush relies on the FIFO network; a consumer that passes the barrier
// must already have the update applied.
func TestFlushWithoutAcksStillOrdersBeforeRelease(t *testing.T) {
	for _, await := range []bool{false, true} {
		decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
		decl.Init = words(1)
		bar := BarrierDecl{ID: 1000, Home: 0, Expected: 2}
		sys := NewSystem(Config{Processors: 2, AwaitUpdateAcks: await}, []Decl{decl}, nil, []BarrierDecl{bar})
		var got uint32
		err := sys.Run(func(root *Thread) {
			root.Spawn(1, "consumer", func(w *Thread) {
				_ = w.ReadWord(page(0))
				w.WaitAtBarrier(1000)
				w.WaitAtBarrier(1000)
				// No re-fault: the in-place update must already be here.
				got = w.ReadWord(page(0))
			})
			root.WaitAtBarrier(1000)
			root.WriteWord(page(0), 9)
			root.WaitAtBarrier(1000)
		})
		if err != nil {
			t.Fatalf("await=%v: %v", await, err)
		}
		if got != 9 {
			t.Errorf("await=%v: consumer read %d, want 9", await, got)
		}
		st := sys.Transport().Stats()
		if await && st.Messages[wire.KindUpdateAck] == 0 {
			t.Error("awaited flush produced no acks")
		}
		if !await && st.Messages[wire.KindUpdateAck] != 0 {
			t.Errorf("non-blocking flush produced %d acks", st.Messages[wire.KindUpdateAck])
		}
	}
}

// TestLockReleaseOrdersUpdatesForNextHolder: condition (2) of release
// consistency across a lock, under the non-blocking flush: the next lock
// holder must observe the previous holder's writes.
func TestLockReleaseOrdersUpdatesForNextHolder(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
	decl.Init = words(0)
	lock := LockDecl{ID: 1, Home: 0}
	bar := BarrierDecl{ID: 1000, Home: 0, Expected: 3}
	sys := testSystem(t, 3, []Decl{decl}, []LockDecl{lock}, []BarrierDecl{bar})
	rounds := 6
	err := sys.Run(func(root *Thread) {
		for w := 1; w <= 2; w++ {
			w := w
			root.Spawn(w, "incrementer", func(tt *Thread) {
				_ = tt.ReadWord(page(0)) // join the copyset
				tt.WaitAtBarrier(1000)
				for r := 0; r < rounds; r++ {
					tt.AcquireLock(1)
					v := tt.ReadWord(page(0))
					tt.WriteWord(page(0), v+1)
					tt.ReleaseLock(1)
				}
				tt.WaitAtBarrier(1000)
			})
		}
		_ = root.ReadWord(page(0))
		root.WaitAtBarrier(1000)
		for r := 0; r < rounds; r++ {
			root.AcquireLock(1)
			v := root.ReadWord(page(0))
			root.WriteWord(page(0), v+1)
			root.ReleaseLock(1)
		}
		root.WaitAtBarrier(1000)
		root.AcquireLock(1)
		if v := root.ReadWord(page(0)); v != uint32(3*rounds) {
			t.Errorf("counter = %d, want %d — an increment was lost", v, 3*rounds)
		}
		root.ReleaseLock(1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPreAcquireMigratoryMigrates: prefetching a migratory object moves
// the single copy rather than creating a replica.
func TestPreAcquireMigratoryMigrates(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.Migratory, Synchq: -1}
	decl.Init = words(3)
	bar := BarrierDecl{ID: 1000, Home: 0, Expected: 2}
	sys := testSystem(t, 2, []Decl{decl}, nil, []BarrierDecl{bar})
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "prefetcher", func(w *Thread) {
			w.PreAcquire(page(0))
			// Migrated with write access: a write takes no further fault.
			before := sys.Node(1).WriteMisses
			w.WriteWord(page(0), 4)
			if sys.Node(1).WriteMisses != before {
				t.Error("write after PreAcquire missed")
			}
			w.WaitAtBarrier(1000)
		})
		root.WriteWord(page(0), 3) // root owns it first
		root.WaitAtBarrier(1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := sys.Node(1).dir.Lookup(page(0)); !e.Owned || !e.Valid {
		t.Error("node 1 does not own the migratory object after PreAcquire")
	}
	if e, _ := sys.Node(0).dir.Lookup(page(0)); e.Valid {
		t.Error("node 0 still holds a copy of the migratory object")
	}
}

// TestOverrideToInvalidateShared: the Table 6 override machinery accepts
// the extension annotation too.
func TestOverrideToInvalidateShared(t *testing.T) {
	inv := protocol.InvalidateShared
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.ProducerConsumer, Synchq: -1}
	sys := NewSystem(Config{Processors: 2, Override: &inv}, []Decl{decl}, nil, nil)
	err := sys.Run(func(root *Thread) {
		root.WriteWord(page(0), 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := sys.Node(0).dir.Lookup(page(0)); e.Annot != protocol.InvalidateShared {
		t.Errorf("annotation = %v, want invalidate_shared", e.Annot)
	}
}

// TestBarrierTreeReleasesEveryone: the tree release scheme must wake
// every waiter — including multiple threads on one node — across fanouts
// and machine widths, and reuse cleanly across rounds.
func TestBarrierTreeReleasesEveryone(t *testing.T) {
	for _, procs := range []int{2, 5, 16} {
		for _, fanout := range []int{2, 4, 7} {
			threadsPer := 2
			total := procs * threadsPer
			bar := BarrierDecl{ID: 1000, Home: 0, Expected: total + 1}
			sys := NewSystem(Config{Processors: procs, BarrierTree: true, BarrierFanout: fanout},
				nil, nil, []BarrierDecl{bar})
			rounds := 4
			counted := 0
			err := sys.Run(func(root *Thread) {
				for w := 0; w < total; w++ {
					root.Spawn(w%procs, "w", func(tt *Thread) {
						for r := 0; r < rounds; r++ {
							tt.WaitAtBarrier(1000)
						}
						counted++
					})
				}
				for r := 0; r < rounds; r++ {
					root.WaitAtBarrier(1000)
				}
			})
			if err != nil {
				t.Fatalf("procs=%d fanout=%d: %v", procs, fanout, err)
			}
			if counted != total {
				t.Errorf("procs=%d fanout=%d: %d threads finished, want %d", procs, fanout, counted, total)
			}
		}
	}
}

// TestBarrierTreeFewerOwnerSends: the owner sends at most fanout releases
// regardless of width; the centralized scheme sends one per remote
// arrival.
func TestBarrierTreeFewerOwnerSends(t *testing.T) {
	run := func(tree bool) int {
		procs := 16
		bar := BarrierDecl{ID: 1000, Home: 0, Expected: procs + 1}
		sys := NewSystem(Config{Processors: procs, BarrierTree: tree}, nil, nil, []BarrierDecl{bar})
		err := sys.Run(func(root *Thread) {
			for w := 0; w < procs; w++ {
				root.Spawn(w, "w", func(tt *Thread) { tt.WaitAtBarrier(1000) })
			}
			root.WaitAtBarrier(1000)
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys.Transport().Stats().Messages[wire.KindBarrierRelease]
	}
	central, tree := run(false), run(true)
	if central != 15 {
		t.Errorf("centralized releases = %d, want 15", central)
	}
	if tree != 15 {
		// One release per waiting node either way; the win is the
		// distribution of the sends (owner sends only its fanout).
		t.Errorf("tree releases = %d, want 15", tree)
	}
}

// TestStaleUpdatesZeroInNormalRuns: the strict protocol never ignores an
// update outside exact-copyset mode.
func TestStaleUpdatesZeroInNormalRuns(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
	bar := BarrierDecl{ID: 1000, Home: 0, Expected: 2}
	sys := testSystem(t, 2, []Decl{decl}, nil, []BarrierDecl{bar})
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "reader", func(w *Thread) {
			_ = w.ReadWord(page(0))
			w.WaitAtBarrier(1000)
			w.WaitAtBarrier(1000)
		})
		root.WaitAtBarrier(1000)
		root.WriteWord(page(0), 2)
		root.WaitAtBarrier(1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if sys.Node(i).StaleUpdates != 0 {
			t.Errorf("node %d stale updates = %d", i, sys.Node(i).StaleUpdates)
		}
	}
}
