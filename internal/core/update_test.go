package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"munin/internal/diffenc"
	"munin/internal/directory"
	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/wire"
)

// This file tests the two ends of an eager update as an update path: the
// twin a write fault makes and a flush retires (and recycles), and the
// diff a holder merges in place.

// wsPage declares one write-shared 8 KB object at page 0.
func wsPage() Decl {
	return Decl{Name: "ws", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
}

// word reads the i-th 32-bit word of b.
func word(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i*4:]) }

// heldCopy runs a two-node program that leaves node 1 holding a valid
// read copy of the page, and returns that node and its entry.
func heldCopy(t testing.TB) (*Node, *directory.Entry) {
	t.Helper()
	sys := NewSystem(Config{Processors: 2}, []Decl{wsPage()}, nil, nil)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "holder", func(w *Thread) { _ = w.ReadWord(page(0)) })
	})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Node(1)
	e, ok := n.dir.Lookup(page(0))
	if !ok || !e.Valid {
		t.Fatalf("node 1 holds no valid copy: %v", e)
	}
	return n, e
}

// diffOf encodes the change of the given words of a zero page to v.
func diffOf(v uint32, changed ...int) []byte {
	twin := make([]byte, 8192)
	cur := make([]byte, 8192)
	for _, i := range changed {
		binary.LittleEndian.PutUint32(cur[i*4:], v)
	}
	diff, _ := diffenc.Encode(twin, cur)
	return diff
}

// TestCorruptDiffLeavesPageUnchanged: a diff whose second run is corrupt
// must fail the apply before its first, good run has written anything —
// the merge is in place now, so there is no scratch copy to throw away.
func TestCorruptDiffLeavesPageUnchanged(t *testing.T) {
	n, e := heldCopy(t)
	before := n.readObject(e)
	corrupt := append(diffOf(7, 3), 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 9, 9, 9, 9) // a run far past the object
	var re *RuntimeError
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.As(err, &re) {
				t.Fatalf("apply of a corrupt diff: recovered %v, want a RuntimeError", err)
			}
		}()
		n.applyUpdate(nil, e, wire.UpdateEntry{Addr: e.Start, Size: 8192, Diff: corrupt}, 0)
	}()
	if re.Op != "update apply" {
		t.Errorf("op = %q, want update apply", re.Op)
	}
	if !bytes.Equal(n.readObject(e), before) {
		t.Error("a corrupt diff changed the page")
	}
}

// TestStoreDuringDecodeChargeSurvivesMerge: the decode charge is a yield,
// and the page is multiple-writer — a local thread may store into it
// right then. The merge that follows must overwrite only the words the
// diff carries, and the twin must take the diff but not the local store,
// so that store still goes out in this node's next diff.
func TestStoreDuringDecodeChargeSurvivesMerge(t *testing.T) {
	sys := NewSystem(Config{Processors: 2}, []Decl{wsPage()}, nil, nil)
	const remote, local = 0xaaaa, 0xbbbb
	changed := make([]int, 1024) // a charge of ~120 µs to land inside
	for i := range changed {
		changed[i] = 2 * i
	}
	u := wire.UpdateEntry{Addr: page(0), Size: 8192, Diff: diffOf(remote, changed...)}
	const applyAt = 50 * rt.Time(1e6)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "storer", func(w *Thread) {
			w.WriteWord(page(0)+4*5, 1) // fault, twin: the page is writable from here on
			w.Compute(applyAt + 40*1000 - w.Now())
			w.WriteWord(page(0)+4*7, local) // no fault: lands mid-charge
		})
		root.Spawn(1, "applier", func(w *Thread) {
			w.Compute(applyAt - w.Now())
			n := w.node
			e, _ := n.dir.Lookup(page(0))
			n.applyUpdate(w.proc, e, u, 0)
			if got := w.Now() - applyAt; got < 100*1000 {
				t.Errorf("the decode charge took %v: too short for the store to land inside", got)
			}
			cur := n.readObject(e)
			if word(cur, 0) != remote || word(cur, 2046) != remote {
				t.Errorf("merged page has words 0, 2046 = %#x, %#x, want %#x", word(cur, 0), word(cur, 2046), remote)
			}
			if word(cur, 7) != local {
				t.Errorf("word 7 = %#x after the merge, want the local store %#x", word(cur, 7), local)
			}
			if word(e.Twin, 0) != remote {
				t.Errorf("twin word 0 = %#x, want the merged %#x", word(e.Twin, 0), remote)
			}
			if word(e.Twin, 7) == local {
				t.Error("the twin took the local store: the next diff would leave it out")
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecycledTwinNeverShowsInLaterDiff: write A, flush, write B, flush.
// The second write's twin is the first one's buffer, recycled; the second
// diff must carry B's word alone, as if the twin were fresh.
func TestRecycledTwinNeverShowsInLaterDiff(t *testing.T) {
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 2}, {ID: 2, Home: 0, Expected: 2}, {ID: 3, Home: 0, Expected: 2}}
	var diffs [][]byte
	sys := NewSystem(Config{Processors: 2, Trace: func(env network.Envelope) {
		if m, ok := env.Msg.(wire.UpdateBatch); ok && env.Src == 0 {
			for _, u := range m.Entries {
				diffs = append(diffs, append([]byte(nil), u.Diff...))
			}
		}
	}}, []Decl{wsPage()}, nil, bars)
	var first, second *byte
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "holder", func(w *Thread) {
			_ = w.ReadWord(page(0))
			w.WaitAtBarrier(1)
			w.WaitAtBarrier(2)
			w.WaitAtBarrier(3)
		})
		root.WaitAtBarrier(1)
		e, _ := root.node.dir.Lookup(page(0))
		root.WriteWord(page(0)+4*1, 0xa)
		first = &e.Twin[0]
		root.WaitAtBarrier(2)
		if e.Twin != nil || len(root.node.twinFree[8192]) != 1 {
			t.Errorf("after the flush: twin %v, %d buffers free, want none and 1", e.Twin != nil, len(root.node.twinFree[8192]))
		}
		root.WriteWord(page(0)+4*2, 0xb)
		second = &e.Twin[0]
		root.WaitAtBarrier(3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("the second twin is not the first one's buffer: nothing was recycled")
	}
	want := [][]byte{diffOf(0xa, 1), diffOf(0xb, 2)}
	if len(diffs) != 2 || !bytes.Equal(diffs[0], want[0]) || !bytes.Equal(diffs[1], want[1]) {
		t.Errorf("node 0 sent diffs % x, want % x", diffs, want)
	}
}

// BenchmarkApplyUpdate measures merging a 16-word diff into a held
// single-page copy: validate, decode in place. CI gates it at 0 allocs/op.
func BenchmarkApplyUpdate(b *testing.B) {
	n, e := heldCopy(b)
	changed := make([]int, 16)
	for i := range changed {
		changed[i] = 100 + i
	}
	u := wire.UpdateEntry{Addr: e.Start, Size: 8192, Diff: diffOf(5, changed...)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.applyUpdate(nil, e, u, 0)
	}
}

// BenchmarkTwinCycle measures a twin's life in the steady state, through
// the thread's own entry points: a write fault snapshots the page into a
// recycled buffer, a flush retires it and write-protects the page again.
// One node, so nothing is sent. CI gates it at 0 allocs/op.
func BenchmarkTwinCycle(b *testing.B) {
	sys := NewSystem(Config{Processors: 1, Transport: rt.NewChan(model.Default(), 1)}, []Decl{wsPage()}, nil, nil)
	err := sys.Run(func(root *Thread) {
		addr := page(0)
		root.WriteWord(addr, 1) // the one twin this run allocates
		root.Flush(addr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root.WriteWord(addr, uint32(i))
			root.Flush(addr)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDenseFlush measures a dense release in the steady state: node
// 0 rewrites every word of a page that node 1 holds and flushes it, so
// each cycle encodes one page-sized diff and sends it on chan. The diff
// is built in a pooled buffer the send path gives back, so CI gates the
// cycle below one page of bytes.
func BenchmarkDenseFlush(b *testing.B) {
	bars := []BarrierDecl{{ID: 1, Home: 0, Expected: 2}}
	sys := NewSystem(Config{Processors: 2, Transport: rt.NewChan(model.Default(), 2)}, []Decl{wsPage()}, nil, bars)
	err := sys.Run(func(root *Thread) {
		addr := page(0)
		root.Spawn(1, "holder", func(w *Thread) {
			_ = w.ReadWord(addr)
			w.WaitAtBarrier(1)
		})
		root.WaitAtBarrier(1)
		buf := make([]byte, 8192)
		write := func(v uint32) {
			for i := 0; i < len(buf); i += 4 {
				binary.LittleEndian.PutUint32(buf[i:], v)
			}
			root.Write(addr, buf)
			root.Flush(addr)
		}
		write(1) // the one twin this run allocates
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			write(uint32(i) + 2)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	e, _ := sys.Node(1).dir.Lookup(page(0))
	if pg, ok := sys.Node(1).Space().Lookup(page(0)); !e.Valid || !ok || word(pg.Data, 0) == 0 {
		b.Fatal("node 1 holds no updated copy: the flushes sent nothing")
	}
}
