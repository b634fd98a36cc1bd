package core

import (
	"fmt"
	"testing"

	"munin/internal/diffenc"
	"munin/internal/network"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// staggeredSharing runs procs nodes on pages shared pages for rounds
// barrier-separated rounds. Node w joins at round join(w): from then on it
// writes its own word of every page each round and, after a barrier,
// reads every joined node's word. Under write_shared, late joiners fault
// their first copy in while other nodes' releases are in flight — the
// reads that race a copyset lookup. A stable annotation admits no reader
// after a writer's first determination, so there every node reads every
// page in before the first round, and only the writers join late. It
// returns the first stale value a node read.
func staggeredSharing(t *testing.T, tr rt.Transport, annot protocol.Annotation, procs, pages, rounds int, cfg Config) error {
	t.Helper()
	join := func(w int) int { return (4 - w%5) % 5 }
	value := func(r, pg, w int) uint32 { return uint32(r*10000 + pg*100 + w + 1) }
	stable := annot.Params().StableSharing
	decls := make([]Decl, pages)
	for pg := range decls {
		decls[pg] = Decl{Name: fmt.Sprintf("p%d", pg), Start: page(pg), Size: vm.DefaultPageSize, Annot: annot, Synchq: -1}
	}
	cfg.Processors, cfg.Transport = procs, tr
	sys := NewSystem(cfg, decls, nil, []BarrierDecl{{ID: 1, Home: 0, Expected: procs + 1}})
	var stale error
	err := sys.Run(func(root *Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, "sharer", func(th *Thread) {
				if stable {
					for pg := 0; pg < pages; pg++ {
						_ = th.ReadWord(page(pg))
					}
					th.WaitAtBarrier(1)
				}
				for r := 0; r < rounds; r++ {
					if r >= join(w) {
						for pg := 0; pg < pages; pg++ {
							th.WriteWord(page(pg)+vm.Addr(4*w), value(r, pg, w))
						}
					}
					th.WaitAtBarrier(1)
					if r >= join(w) || stable {
						for pg := 0; pg < pages; pg++ {
							for q := 0; q < procs; q++ {
								if r < join(q) {
									continue
								}
								if got := th.ReadWord(page(pg) + vm.Addr(4*q)); got != value(r, pg, q) && stale == nil {
									stale = fmt.Errorf("node %d round %d page %d word %d = %d, want %d",
										w, r, pg, q, got, value(r, pg, q))
								}
							}
						}
					}
					th.WaitAtBarrier(1)
				}
			})
		}
		barriers := 2 * rounds
		if stable {
			barriers++
		}
		for i := 0; i < barriers; i++ {
			root.WaitAtBarrier(1)
		}
	})
	if err != nil {
		return err
	}
	return stale
}

// TestExactCopysetStaggeredSharing: with home-directed copysets every late
// joiner's first copy carries every release before it, on every
// transport.
func TestExactCopysetStaggeredSharing(t *testing.T) {
	for _, name := range []string{"sim", "chan", "mux"} {
		for _, procs := range []int{4, 8} {
			if err := staggeredSharing(t, transportFor(t, name, procs), protocol.WriteShared, procs, 2, 6, Config{ExactCopyset: true}); err != nil {
				t.Errorf("%s procs=%d: %v", name, procs, err)
			}
		}
	}
}

// TestExactCopysetUnderReordering replays the staggered sharing on the
// simulator with cross-sender delivery reordering wide enough to let a
// home's forwarded read overtake a writer's update to the holder it is
// forwarded to. Acknowledged flushes are what release consistency needs
// under reordering; the home-directed algorithm additionally needs every
// promise to leave after the flush's acknowledgements (flushEntries).
// producer_consumer objects take the same home-served path.
func TestExactCopysetUnderReordering(t *testing.T) {
	for _, annot := range []protocol.Annotation{protocol.WriteShared, protocol.ProducerConsumer} {
		for _, span := range []int64{8, 500, 3000} {
			for seed := int64(1); seed <= 40; seed++ {
				tr := transportFor(t, "sim", 8)
				tr.SetFaults(&rt.Faults{ReorderSeed: seed, ReorderSpan: span})
				if err := staggeredSharing(t, tr, annot, 8, 2, 6, Config{ExactCopyset: true, AwaitUpdateAcks: true}); err != nil {
					t.Errorf("%v span x%d seed %d: %v", annot, span, seed, err)
				}
			}
		}
	}
}

// TestHomeHoldsReadsWhileItsCopyIsInFlight: a read reaching the home while
// the home's own fault is fetching its copy waits for that copy. Forwarded
// instead, it could reach a holder ahead of an update the home's lookup
// answer promised — an update that has already landed in the home's
// fetch stash, so it holds no read for it.
func TestHomeHoldsReadsWhileItsCopyIsInFlight(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: vm.DefaultPageSize, Annot: protocol.WriteShared, Synchq: -1}
	sys := NewSystem(Config{Processors: 3, ExactCopyset: true}, []Decl{decl}, nil, nil)
	home := sys.Node(0)
	err := sys.Run(func(root *Thread) {
		e, _ := home.dir.Lookup(page(0))
		e.BackingStale, e.ProbOwner = true, 1 // node 1 wrote; the home holds no copy
		home.acquire(root.proc, e.Sem)        // the home's own fault, in flight
		sent := sys.Transport().Stats().Messages[wire.KindReadReq]
		home.serveRead(root.proc, wire.ReadReq{Addr: page(0), Requester: 2})
		if got := len(home.deferredReads[page(0)]); got != 1 {
			t.Errorf("reads held at the home = %d, want 1", got)
		}
		if sys.Transport().Stats().Messages[wire.KindReadReq] != sent {
			t.Error("the home forwarded a read while its own copy was in flight")
		}
		delete(home.deferredReads, page(0))
		e.Sem.Release()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHomeBackingInstallAppliesStash: an update that reaches the home
// while it installs its copy from fresh backing (a lookup counted the
// fault in flight) is applied once the copy is in place, not dropped with
// the fault.
func TestHomeBackingInstallAppliesStash(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: vm.DefaultPageSize, Annot: protocol.WriteShared, Synchq: -1}
	sys := NewSystem(Config{Processors: 2, ExactCopyset: true}, []Decl{decl}, nil, nil)
	home := sys.Node(0)
	var got uint32
	err := sys.Run(func(root *Thread) {
		e, _ := home.dir.Lookup(page(0))
		cur := make([]byte, vm.DefaultPageSize)
		copy(cur, words(7))
		diff, _ := diffenc.Encode(make([]byte, vm.DefaultPageSize), cur)
		home.acquire(root.proc, e.Sem)
		home.fetchStash[e.Start] = []wire.UpdateEntry{{Addr: e.Start, Size: uint32(e.Size), Diff: diff}}
		home.fetchReadCopy(root, e, false)
		e.Sem.Release()
		got = root.ReadWord(page(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("home reads %d, want the stashed update's 7", got)
	}
}

// TestExactByDefault: home-directed copysets are derived, not configured —
// on for eager, non-adaptive runs on the live transports, off on the
// simulator and wherever the engines exclude them.
func TestExactByDefault(t *testing.T) {
	for _, c := range []struct {
		transport      string
		lazy, adaptive bool
		want           bool
	}{
		{"sim", false, false, false},
		{"chan", false, false, true},
		{"mux", false, false, true},
		{"chan", true, false, false},
		{"mux", false, true, false},
	} {
		if got := exactByDefault(c.transport, c.lazy, c.adaptive); got != c.want {
			t.Errorf("exactByDefault(%q, lazy=%v, adaptive=%v) = %v, want %v", c.transport, c.lazy, c.adaptive, got, c.want)
		}
	}
}

// TestInstallingCopyHoldsReadsAndQueuesUpdates: while a fresh copy merges
// the updates that raced its fetch, a read waits and a later update queues
// behind the ones still to merge, so nobody sees the copy half current.
func TestInstallingCopyHoldsReadsAndQueuesUpdates(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: vm.DefaultPageSize, Annot: protocol.WriteShared, Synchq: -1}
	sys := NewSystem(Config{Processors: 3, ExactCopyset: true}, []Decl{decl}, nil, nil)
	home := sys.Node(0)
	err := sys.Run(func(root *Thread) {
		_ = root.ReadWord(page(0))
		e, _ := home.dir.Lookup(page(0))
		empty := wire.UpdateEntry{Addr: e.Start, Size: uint32(e.Size)}
		home.fetchStash[e.Start] = []wire.UpdateEntry{empty} // one update still to merge
		home.serveRead(root.proc, wire.ReadReq{Addr: page(0), Requester: 2})
		if got := len(home.deferredReads[page(0)]); got != 1 {
			t.Errorf("reads held during the install = %d, want 1", got)
		}
		home.serveUpdateBatch(root.proc, 1, wire.UpdateBatch{From: 1, Entries: []wire.UpdateEntry{empty}}, false)
		if got := len(home.fetchStash[e.Start]); got != 2 {
			t.Errorf("updates queued during the install = %d, want 2", got)
		}
		delete(home.fetchStash, e.Start)
		delete(home.deferredReads, page(0))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhaseChangeKeepsHomeTrackedCopyset: PhaseChange purges what a
// release determined, but a home-directed object's home keeps its copyset
// — the nodes that hold copies still hold them, and the next phase's
// updates must reach them as well as the new sharers. A remote writer's
// cached copyset is purged: it looks the copyset up again, and the new
// sharer gets its next update.
func TestPhaseChangeKeepsHomeTrackedCopyset(t *testing.T) {
	decl := Decl{Name: "pc", Start: page(0), Size: vm.DefaultPageSize, Annot: protocol.ProducerConsumer, Synchq: -1}
	sys := NewSystem(Config{Processors: 3, ExactCopyset: true}, []Decl{decl}, nil,
		[]BarrierDecl{{ID: 1, Home: 0, Expected: 3}})
	var old, late, lateRemote uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "sharer", func(w *Thread) {
			_ = w.ReadWord(page(0))
			w.WaitAtBarrier(1)
			w.WriteWord(page(0)+4, 10)
			w.WaitAtBarrier(1) // looks the copyset up: {0}
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(1)
			w.WriteWord(page(0)+4, 20)
			w.WaitAtBarrier(1) // the PhaseChange purged it: looks it up again
			old = w.ReadWord(page(0))
		})
		root.Spawn(2, "latecomer", func(w *Thread) {
			for i := 0; i < 3; i++ {
				w.WaitAtBarrier(1)
			}
			_ = w.ReadWord(page(0)) // joins the new phase before its first release
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(1)
			late, lateRemote = w.ReadWord(page(0)), w.ReadWord(page(0)+4)
		})
		root.WaitAtBarrier(1)
		root.WriteWord(page(0), 1)
		root.WaitAtBarrier(1) // the first release determines {1}
		root.PhaseChange(page(0))
		root.WaitAtBarrier(1)
		root.WaitAtBarrier(1)
		root.WriteWord(page(0), 2)
		root.WaitAtBarrier(1) // re-determined: the sharer and the latecomer
	})
	if err != nil {
		t.Fatal(err)
	}
	if old != 2 || late != 2 {
		t.Errorf("earlier sharer read %d, latecomer %d; want 2 and 2", old, late)
	}
	if lateRemote != 20 {
		t.Errorf("latecomer read the remote writer's word as %d, want 20", lateRemote)
	}
	if got := sys.Transport().Stats().Messages[wire.KindCopysetLookup]; got != 2 {
		t.Errorf("copyset lookups = %d, want 2: one per phase from the remote writer", got)
	}
}

// TestRepatriatedCopyJoinsTheHomesCopyset: a writer that holds the only
// copy and invalidates it hands the data home. That copy is one the home
// did not read, so the home admits itself as its reader: the writer learns
// of it, and its next release updates it. Otherwise the writer's kept
// copyset stays empty, and a later reader is served the repatriated data
// without the writer's second write.
func TestRepatriatedCopyJoinsTheHomesCopyset(t *testing.T) {
	for _, name := range []string{"sim", "chan", "mux"} {
		decl := Decl{Name: "x", Start: page(0), Size: vm.DefaultPageSize, Annot: protocol.WriteShared, Synchq: -1}
		cfg := Config{Processors: 3, ExactCopyset: true, Transport: transportFor(t, name, 3)}
		sys := NewSystem(cfg, []Decl{decl}, nil, []BarrierDecl{{ID: 1, Home: 0, Expected: 3}})
		var got uint32
		err := sys.Run(func(root *Thread) {
			root.Spawn(1, "writer", func(w *Thread) {
				w.WriteWord(page(0)+4, 1)
				w.WaitAtBarrier(1)    // looks the copyset up: nobody else holds one
				w.Invalidate(page(0)) // the sole copy: its data goes home
				w.WriteWord(page(0)+4, 2)
				w.WaitAtBarrier(1)
			})
			root.Spawn(2, "reader", func(r *Thread) {
				r.WaitAtBarrier(1)
				r.WaitAtBarrier(1)
				got = r.ReadWord(page(0) + 4)
			})
			root.WaitAtBarrier(1)
			root.WaitAtBarrier(1)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != 2 {
			t.Errorf("%s: reader read %d, want the writer's second write, 2", name, got)
		}
	}
}

// TestHomeAnnouncesReadsAndCountsPromises: node 1 wrote, looked the
// copyset up and holds the only copy; then reads reach the home. Each read
// is announced to node 1 and held for its promise, counted per notify: say
// node 1 answered one notify at once and owes the next at the end of a
// flush — its first promise must not release the second read. A reader the
// home registered before is announced again, because a node asks only when
// it holds no copy: it dropped its copy and may have discarded an update
// the holder serving it must have first — or it is the home itself,
// counted at a lookup while its own fault was in flight, which a writer
// that looked up earlier never heard of.
func TestHomeAnnouncesReadsAndCountsPromises(t *testing.T) {
	for _, c := range []struct {
		name       string
		readers    []int // read requests reaching the home, in order
		registered []int // readers already in the home's copyset
		promises   int   // promises node 1 then delivers
		held       int   // reads still held after them
	}{
		{"two new readers, one promise", []int{2, 3}, nil, 1, 2},
		{"registered reader", []int{2}, []int{2}, 0, 1},
		{"registered home", []int{0}, []int{0}, 0, 1},
	} {
		decl := Decl{Name: "x", Start: page(0), Size: vm.DefaultPageSize, Annot: protocol.WriteShared, Synchq: -1}
		sys := NewSystem(Config{Processors: 4, ExactCopyset: true}, []Decl{decl}, nil,
			[]BarrierDecl{{ID: 1, Home: 0, Expected: 2}})
		home, cacher := sys.Node(0), sys.Node(1)
		err := sys.Run(func(root *Thread) {
			root.Spawn(1, "cacher", func(w *Thread) {
				_ = w.ReadWord(page(0))
				w.WaitAtBarrier(1)
			})
			root.WaitAtBarrier(1)
			e, _ := home.dir.Lookup(page(0))
			e.BackingStale, e.ProbOwner = true, 1
			for _, r := range c.registered {
				e.Copyset = e.Copyset.Add(r)
			}
			e.Cachers = e.Cachers.Add(1)
			// Node 1 is flushing, so the notifies it really gets wait in
			// its owed list; the test delivers its promises by hand.
			cacher.flushing = true
			sent := sys.Transport().Stats().Messages[wire.KindCopysetNotify]
			for _, r := range c.readers {
				home.serveRead(root.proc, wire.ReadReq{Addr: page(0), Requester: uint8(r)})
			}
			if got := sys.Transport().Stats().Messages[wire.KindCopysetNotify] - sent; got != len(c.readers) {
				t.Errorf("%s: notifies sent = %d, want one per read: %d", c.name, got, len(c.readers))
			}
			promise := wire.UpdateBatch{From: 1, Entries: []wire.UpdateEntry{{Addr: e.Start, Size: uint32(e.Size)}}}
			for i := 0; i < c.promises; i++ {
				home.serveUpdateBatch(root.proc, 1, promise, false)
			}
			if got := len(home.deferredReads[page(0)]); got != c.held {
				t.Errorf("%s: reads held after %d promises = %d, want %d", c.name, c.promises, got, c.held)
			}
			if want := len(c.readers) - c.promises; e.Promises != want {
				t.Errorf("%s: promises owed = %d, want %d", c.name, e.Promises, want)
			}
			delete(home.deferredReads, page(0))
			e.Promises = 0
			cacher.flushing, cacher.owed = false, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// TestPromiseFollowsTheFlushInProgress: a notify a cacher handles after
// one of its flushes has chosen its destinations is answered at that
// flush's end. The promise reaches the home behind the flush's update to
// it, and after every acknowledgement the flush awaited: the home may
// forward the reads it held to any holder the moment the promise lands.
func TestPromiseFollowsTheFlushInProgress(t *testing.T) {
	decl := Decl{Name: "x", Start: page(0), Size: vm.DefaultPageSize, Annot: protocol.WriteShared, Synchq: -1}
	var log []network.Envelope
	cfg := Config{Processors: 3, ExactCopyset: true, AwaitUpdateAcks: true,
		Trace: func(env network.Envelope) { log = append(log, env) }}
	sys := NewSystem(cfg, []Decl{decl}, nil, []BarrierDecl{{ID: 1, Home: 0, Expected: 3}})
	cacher := sys.Node(1)
	firstFlush := -1 // node 1's UpdatesSent after its first flush
	handed := false
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "writer", func(w *Thread) {
			_ = w.ReadWord(page(0))
			w.WaitAtBarrier(1)
			w.WriteWord(page(0)+4, 7)
			w.WaitAtBarrier(1) // looks the copyset up: node 1 caches {0, 2}
			firstFlush = cacher.UpdatesSent
			w.WriteWord(page(0)+4, 8)
			w.WaitAtBarrier(1) // sends its updates, then awaits their acks
		})
		root.Spawn(1, "dispatcher stand-in", func(d *Thread) {
			// Once the writer's second flush has chosen its destinations,
			// hand node 1 a notify, as its dispatcher would on receipt.
			for i := 0; !(firstFlush >= 0 && cacher.UpdatesSent > firstFlush && cacher.flushing); i++ {
				if i == 100000 {
					t.Error("never saw the second flush in progress")
					return
				}
				d.Compute(1000)
			}
			cacher.serveCopysetNotify(d.proc, 0, wire.CopysetNotify{Addr: page(0), Reader: 2})
			handed = true
		})
		root.Spawn(2, "reader", func(w *Thread) {
			_ = w.ReadWord(page(0))
			for i := 0; i < 3; i++ {
				w.WaitAtBarrier(1)
			}
		})
		_ = root.ReadWord(page(0))
		for i := 0; i < 3; i++ {
			root.WaitAtBarrier(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !handed {
		t.Fatal("the notify was never handed over")
	}
	// Walk node 1's deliveries in order: two flushes, each an update to
	// node 0 and to node 2 and an ack from each, then the promise.
	updates, acks, promises := 0, 0, 0
	for _, env := range log {
		switch m := env.Msg.(type) {
		case wire.UpdateAck:
			if env.Dst == 1 {
				acks++
			}
		case wire.UpdateBatch:
			if env.Src != 1 || env.Dst != 0 {
				continue
			}
			if len(m.Entries) == 1 && m.Entries[0].Full == nil && len(m.Entries[0].Diff) == 0 {
				promises++
				if updates != 2 || acks != 4 {
					t.Errorf("promise reached the home after %d of 2 updates to it and %d of 4 acks", updates, acks)
				}
			} else {
				updates++
			}
		}
	}
	if promises != 1 {
		t.Errorf("promises from node 1 = %d, want 1", promises)
	}
}
