package lrc

import (
	"reflect"
	"testing"

	"munin/internal/vm"
	"munin/internal/wire"
)

func TestCloseIntervalAdvancesVT(t *testing.T) {
	e := New(1, 4)
	ivl := e.CloseInterval([]vm.Addr{0x80001000, 0x80000000})
	if ivl != 1 {
		t.Fatalf("first interval = %d, want 1", ivl)
	}
	if got := e.VT(); !reflect.DeepEqual(got, []uint32{0, 1, 0, 0}) {
		t.Fatalf("vt = %v", got)
	}
	if got := e.Noticed(0x80001000); got[1] != 1 {
		t.Fatalf("noticed = %v", got)
	}
}

func TestNoticesSinceAndAbsorb(t *testing.T) {
	a := New(0, 3)
	a.CloseInterval([]vm.Addr{0x80000000})
	a.CloseInterval([]vm.Addr{0x80002000})

	b := New(1, 3)
	if touched := b.Absorb(a.VT(), a.AppendNoticesSince(nil, b.VT())); touched != 2 {
		t.Fatalf("absorb touched %d objects, want 2", touched)
	}
	if got := b.VT(); !reflect.DeepEqual(got, []uint32{2, 0, 0}) {
		t.Fatalf("vt after absorb = %v", got)
	}
	// Idempotent: absorbing the same notices again touches nothing.
	if touched := b.Absorb(a.VT(), a.AppendNoticesSince(nil, []uint32{0, 0, 0})); touched != 0 {
		t.Fatalf("re-absorb touched %d objects", touched)
	}
	// b can now forward a's intervals to a third node.
	ns := b.AppendNoticesSince(nil, []uint32{1, 0, 0})
	if len(ns) != 1 || ns[0].Node != 0 || ns[0].Ivl != 2 {
		t.Fatalf("forwarded notices = %+v", ns)
	}
}

// TestAbsorbCopiesNotices: the engine keeps its own copy of the
// addresses it absorbs, so a caller reusing its notice lists afterwards
// cannot change what the engine forwards.
func TestAbsorbCopiesNotices(t *testing.T) {
	ns := []wire.LrcInterval{
		{Node: 1, Ivl: 1, Addrs: []vm.Addr{0x80000000, 0x80002000}},
		{Node: 1, Ivl: 2, Addrs: []vm.Addr{0x80004000}},
		{Node: 2, Ivl: 1, Addrs: []vm.Addr{0x80002000}},
	}
	want := []wire.LrcInterval{
		{Node: 1, Ivl: 1, Addrs: []vm.Addr{0x80000000, 0x80002000}},
		{Node: 1, Ivl: 2, Addrs: []vm.Addr{0x80004000}},
		{Node: 2, Ivl: 1, Addrs: []vm.Addr{0x80002000}},
	}
	e := New(0, 3)
	if got := e.Absorb([]uint32{0, 2, 1}, ns); got != 3 {
		t.Fatalf("absorb touched %d objects, want 3", got)
	}
	for i := range ns {
		for k := range ns[i].Addrs {
			ns[i].Addrs[k] = 0xdead0000
		}
		ns[i].Addrs = append(ns[i].Addrs, 0xbeef0000)
	}
	if got := e.AppendNoticesSince(nil, []uint32{0, 0, 0}); !reflect.DeepEqual(got, want) {
		t.Fatalf("notices after the caller rewrote its lists = %+v, want %+v", got, want)
	}
	// Appending to what the engine hands out must not reach its copy
	// either (each interval's addresses are capacity-clipped).
	got := e.AppendNoticesSince(nil, []uint32{0, 0, 0})
	_ = append(got[0].Addrs, 0xbeef0000)
	if again := e.AppendNoticesSince(nil, []uint32{0, 0, 0}); !reflect.DeepEqual(again, want) {
		t.Fatalf("notices after appending to a returned list = %+v, want %+v", again, want)
	}
}

func TestNeedsFrom(t *testing.T) {
	e := New(2, 4)
	e.Absorb([]uint32{3, 1, 0, 0}, []wire.LrcInterval{
		{Node: 0, Ivl: 3, Addrs: []vm.Addr{0x80000000}},
		{Node: 1, Ivl: 1, Addrs: []vm.Addr{0x80000000}},
	})
	applied := []uint32{3, 0, 0, 0}
	if got := e.NeedsFrom(0x80000000, applied); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("needs = %v, want [1]", got)
	}
	if got := e.NeedsFrom(0x80006000, applied); got != nil {
		t.Fatalf("needs for unnoticed object = %v", got)
	}
	// Stale agrees with NeedsFrom on every object and applied vector.
	for _, a := range []vm.Addr{0x80000000, 0x80006000} {
		for _, ap := range [][]uint32{applied, {3, 1, 0, 0}, {2, 1, 0, 0}, nil} {
			if got, want := e.Stale(a, ap), len(e.NeedsFrom(a, ap)) > 0; got != want {
				t.Errorf("Stale(%#x, %v) = %v, NeedsFrom says %v", a, ap, got, want)
			}
		}
	}
	// The node's own interval never makes a copy stale.
	own := New(0, 2)
	own.CloseInterval([]vm.Addr{0x80000000})
	if own.Stale(0x80000000, nil) {
		t.Error("a node's own notice made its copy stale")
	}
}

func TestRecordsAfterAndGC(t *testing.T) {
	e := New(0, 2)
	e.CloseInterval([]vm.Addr{0x80000000})
	e.AddRecord(0x80000000, wire.LrcRecord{First: 1, Last: 1, VT: e.VT(), Diff: []byte{1}})
	e.CloseInterval([]vm.Addr{0x80000000})
	e.AddRecord(0x80000000, wire.LrcRecord{First: 2, Last: 2, VT: e.VT(), Diff: []byte{2}})

	if rs := e.RecordsAfter(0x80000000, 1); len(rs) != 1 || rs[0].First != 2 {
		t.Fatalf("records after 1 = %+v", rs)
	}
	if e.LastRecord(0x80000000) != 2 {
		t.Fatalf("last record = %d", e.LastRecord(0x80000000))
	}
	if n := e.GC([]uint32{1, 0}); n != 1 {
		t.Fatalf("GC dropped %d, want 1", n)
	}
	if rs := e.RecordsAfter(0x80000000, 0); len(rs) != 1 || rs[0].First != 2 {
		t.Fatalf("records after GC = %+v", rs)
	}
	// Notices at or below the floor are pruned from forwarding too.
	if ns := e.AppendNoticesSince(nil, []uint32{0, 0}); len(ns) != 1 || ns[0].Ivl != 2 {
		t.Fatalf("notices after GC = %+v", ns)
	}
}

func TestMinFloors(t *testing.T) {
	acc := MinFloors(nil, []uint32{3, 5})
	acc = MinFloors(acc, []uint32{4, 2})
	if !reflect.DeepEqual(acc, []uint32{3, 2}) {
		t.Fatalf("floors = %v", acc)
	}
}

func TestOrderRespectsHappensBefore(t *testing.T) {
	// Writer 0 closed interval 1 (VT [1,0]); writer 1 acquired from it
	// and closed interval 3 with VT [1,3]: 0's record must apply first
	// even though writer 1 sorts later numerically only by tie-break.
	r0 := wire.LrcRecord{First: 1, Last: 1, VT: []uint32{1, 0}}
	r1 := wire.LrcRecord{First: 3, Last: 3, VT: []uint32{1, 3}}
	out := ordered([]WriterRecords{
		{Writer: 1, Records: []wire.LrcRecord{r1}},
		{Writer: 0, Records: []wire.LrcRecord{r0}},
	})
	if len(out) != 2 || out[0].Writer != 0 || out[1].Writer != 1 {
		t.Fatalf("order = %+v", out)
	}
	// Concurrent records (incomparable VTs) order by writer id.
	c0 := wire.LrcRecord{First: 2, Last: 2, VT: []uint32{2, 0}}
	c1 := wire.LrcRecord{First: 1, Last: 1, VT: []uint32{0, 1}}
	out = ordered([]WriterRecords{
		{Writer: 1, Records: []wire.LrcRecord{c1}},
		{Writer: 0, Records: []wire.LrcRecord{c0}},
	})
	if out[0].Writer != 0 || out[1].Writer != 1 {
		t.Fatalf("concurrent order = %+v", out)
	}
}
