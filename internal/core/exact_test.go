package core

import (
	"fmt"
	"testing"

	"munin/internal/diffenc"
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
// updates must reach them as well as the new sharers.
func TestPhaseChangeKeepsHomeTrackedCopyset(t *testing.T) {
	decl := Decl{Name: "pc", Start: page(0), Size: vm.DefaultPageSize, Annot: protocol.ProducerConsumer, Synchq: -1}
	sys := NewSystem(Config{Processors: 3, ExactCopyset: true}, []Decl{decl}, nil,
		[]BarrierDecl{{ID: 1, Home: 0, Expected: 3}})
	var old, late uint32
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "sharer", func(w *Thread) {
			_ = w.ReadWord(page(0))
			for i := 0; i < 5; i++ {
				w.WaitAtBarrier(1)
			}
			old = w.ReadWord(page(0))
		})
		root.Spawn(2, "latecomer", func(w *Thread) {
			for i := 0; i < 3; i++ {
				w.WaitAtBarrier(1)
			}
			_ = w.ReadWord(page(0)) // joins the new phase before its first release
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(1)
			late = w.ReadWord(page(0))
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
}
