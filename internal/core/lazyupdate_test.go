package core

import (
	"bytes"
	"errors"
	"testing"

	"munin/internal/directory"
	"munin/internal/lrc"
	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/rt"
	"munin/internal/wire"
)

// This file is update_test.go's mirror for the lazy engine: the record a
// holder merges in place, and the twin a write fault makes and a
// materialization retires (and recycles).

// lazyHeldCopy runs a two-node lazy program that leaves node 1 holding a
// valid copy of the page with an open interval — so a twin — and
// returns that node and its entry. Nothing may inspect the system's
// memory through System afterwards: that reconciles, and drops the twin.
func lazyHeldCopy(t testing.TB) (*Node, *directory.Entry) {
	t.Helper()
	sys := NewSystem(Config{Processors: 2, Lazy: true}, []Decl{wsPage()}, nil, nil)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "holder", func(w *Thread) { w.WriteWord(page(0)+4*9, 0x99) })
	})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Node(1)
	e, ok := n.dir.Lookup(page(0))
	if !ok || !e.Valid || e.Twin == nil {
		t.Fatalf("node 1 holds no valid, twinned copy: %v", e)
	}
	return n, e
}

// recordOf wraps a diff as writer 0's first record.
func recordOf(diff []byte) []lrc.WriterRecords {
	return []lrc.WriterRecords{{Writer: 0, UpTo: 1, Records: []wire.LrcRecord{
		{First: 1, Last: 1, VT: []uint32{1, 0}, Diff: diff},
	}}}
}

// TestCorruptLazyDiffLeavesPageUnchanged: a record whose diff has a good
// first run and a corrupt second one must fail the apply in Check, before
// the good run has written a byte of the page or of the twin.
func TestCorruptLazyDiffLeavesPageUnchanged(t *testing.T) {
	n, e := lazyHeldCopy(t)
	page, twin := n.readObject(e), append([]byte(nil), e.Twin...)
	corrupt := append(diffOf(7, 3), 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 9, 9, 9, 9) // a run far past the object
	var re *RuntimeError
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.As(err, &re) {
				t.Fatalf("apply of a corrupt record: recovered %v, want a RuntimeError", err)
			}
		}()
		n.lrcApply(nil, e, recordOf(corrupt))
	}()
	if re.Op != "lrc apply" {
		t.Errorf("op = %q, want lrc apply", re.Op)
	}
	if !bytes.Equal(n.readObject(e), page) {
		t.Error("a corrupt record changed the page")
	}
	if !bytes.Equal(e.Twin, twin) {
		t.Error("a corrupt record changed the twin")
	}
	if got := e.Lrc.Applied[0]; got != 0 {
		t.Errorf("applied[0] = %d after a failed apply, want 0", got)
	}

	// The good part alone goes into both, and leaves the local store be.
	n.lrcApply(nil, e, recordOf(diffOf(7, 3)))
	cur := n.readObject(e)
	if word(cur, 3) != 7 || word(e.Twin, 3) != 7 {
		t.Errorf("after a good record: page word 3 = %d, twin word 3 = %d, want 7 and 7", word(cur, 3), word(e.Twin, 3))
	}
	if word(cur, 9) != 0x99 || word(e.Twin, 9) != 0 {
		t.Errorf("the local store: page word 9 = %#x, twin word 9 = %#x, want 0x99 and 0", word(cur, 9), word(e.Twin, 9))
	}
	if got := e.Lrc.Applied[0]; got != 1 {
		t.Errorf("applied[0] = %d after the record, want 1", got)
	}
}

// TestRecycledTwinNeverShowsInLazyDiff: write A, release (the interval
// closes, the twin stays), write B — the fault materializes A's record,
// retires the twin and snapshots into that very buffer — release,
// materialize. The second record must carry B's word alone, as if its
// twin were fresh.
func TestRecycledTwinNeverShowsInLazyDiff(t *testing.T) {
	sys := NewSystem(Config{Processors: 1, Lazy: true}, []Decl{wsPage()}, []LockDecl{{ID: 1, Home: 0}}, nil)
	var first, second *byte
	var recs []wire.LrcRecord
	err := sys.Run(func(root *Thread) {
		n := root.node
		root.AcquireLock(1)
		root.WriteWord(page(0)+4*1, 0xa)
		e, _ := n.dir.Lookup(page(0))
		first = &e.Twin[0]
		root.ReleaseLock(1)
		if e.Twin == nil || e.Lrc.PendFirst != 1 || len(n.twinFree[8192]) != 0 {
			t.Errorf("after the release: twin %v, pending from %d, %d buffers free; want a twin kept for interval 1",
				e.Twin != nil, e.Lrc.PendFirst, len(n.twinFree[8192]))
		}
		root.AcquireLock(1)
		root.WriteWord(page(0)+4*2, 0xb)
		second = &e.Twin[0]
		root.ReleaseLock(1)
		n.lrcMaterialize(root.proc, e)
		if e.Twin != nil || len(n.twinFree[8192]) != 1 {
			t.Errorf("after materializing: twin %v, %d buffers free, want none and 1", e.Twin != nil, len(n.twinFree[8192]))
		}
		recs = n.lrc.RecordsAfter(page(0), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("the second twin is not the first one's buffer: nothing was recycled")
	}
	want := [][]byte{diffOf(0xa, 1), diffOf(0xb, 2)}
	if len(recs) != 2 || !bytes.Equal(recs[0].Diff, want[0]) || !bytes.Equal(recs[1].Diff, want[1]) {
		t.Errorf("node 0 stored records %+v, want diffs % x", recs, want)
	}
}

// TestServedBaseSurvivesTwinRetirement: a home with writes in flight
// serves its twin as the base, then retires that twin at the next
// materialization and snapshots into the buffer again. The base it gave
// away — the bytes delivered, and the copy the fetcher installed from
// them — must read after that as it read when served. (Every transport
// encodes a message as it is sent, so the serve's own copy of the twin is
// belt and braces; this holds the property whichever of the two keeps it.)
func TestServedBaseSurvivesTwinRetirement(t *testing.T) {
	var served []byte // the delivered response's own slice
	sys := NewSystem(Config{Processors: 2, Lazy: true, Trace: func(env network.Envelope) {
		if m, ok := env.Msg.(wire.LrcFetchResp); ok {
			served = m.Data
		}
	}}, []Decl{wsPage()}, nil, nil)
	const ms = rt.Time(1e6)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "fetcher", func(w *Thread) {
			w.Compute(10 * ms)
			if got := w.ReadWord(page(0) + 4*1); got != 0 {
				t.Errorf("the base read %#x at word 1: the home's unreleased store leaked into it", got)
			}
			w.Compute(100*ms - w.Now())
			if got := w.ReadWord(page(0) + 4*1); got != 0 {
				t.Errorf("the base read %#x at word 1 after the home recycled its twin", got)
			}
		})
		root.WriteWord(page(0)+4*1, 0xa) // the twin is the zero page
		e, _ := root.node.dir.Lookup(page(0))
		twin := &e.Twin[0]
		root.Compute(50*ms - root.Now())
		if served == nil {
			t.Error("no base was served while the twin was alive")
		}
		root.Flush(page(0))              // materialize: the twin retires
		root.WriteWord(page(0)+4*2, 0xb) // and is snapshotted into again, word 1 = 0xa now
		if &e.Twin[0] != twin || word(e.Twin, 1) != 0xa {
			t.Error("the twin was not recycled and refilled: the test shows nothing")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, make([]byte, 8192)) {
		t.Errorf("the served base changed after the twin's retirement: %d bytes, word 1 = %#x", len(served), word(served, 1))
	}
}

// BenchmarkLrcApply measures merging one fetched 16-word record into a
// held, twinned single-page copy: order, validate, decode in place into
// page and twin. CI gates it at 0 allocs/op.
func BenchmarkLrcApply(b *testing.B) {
	n, e := lazyHeldCopy(b)
	changed := make([]int, 16)
	for i := range changed {
		changed[i] = 100 + i
	}
	sets := recordOf(diffOf(5, changed...))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.lrcApply(nil, e, sets)
	}
}

// BenchmarkLazyTwinCycle measures a lazy twin's life in the steady state,
// through the thread's own entry points: a write fault snapshots the page
// into a recycled buffer, Flush closes an interval over it and
// materializes the diff, retiring the twin. One node, so nothing is
// sent. What it allocates is the record — the diff, its timestamp, the
// notice — and never a page: CI gates it below one page of bytes per
// cycle.
func BenchmarkLazyTwinCycle(b *testing.B) {
	sys := NewSystem(Config{Processors: 1, Lazy: true, Transport: rt.NewChan(model.Default(), 1)}, []Decl{wsPage()}, nil, nil)
	err := sys.Run(func(root *Thread) {
		addr := page(0)
		root.WriteWord(addr, 1) // the one twin this run allocates
		root.Flush(addr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root.WriteWord(addr, uint32(i)+2)
			root.Flush(addr)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}
