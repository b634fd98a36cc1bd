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
	touched := b.Absorb(a.VT(), a.NoticesSince(b.VT()))
	if want := []vm.Addr{0x80000000, 0x80002000}; !reflect.DeepEqual(touched, want) {
		t.Fatalf("touched = %v, want %v", touched, want)
	}
	if got := b.VT(); !reflect.DeepEqual(got, []uint32{2, 0, 0}) {
		t.Fatalf("vt after absorb = %v", got)
	}
	// Idempotent: absorbing the same notices again touches nothing.
	if touched := b.Absorb(a.VT(), a.NoticesSince([]uint32{0, 0, 0})); len(touched) != 0 {
		t.Fatalf("re-absorb touched %v", touched)
	}
	// b can now forward a's intervals to a third node.
	ns := b.NoticesSince([]uint32{1, 0, 0})
	if len(ns) != 1 || ns[0].Node != 0 || ns[0].Ivl != 2 {
		t.Fatalf("forwarded notices = %+v", ns)
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
	if ns := e.NoticesSince([]uint32{0, 0}); len(ns) != 1 || ns[0].Ivl != 2 {
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
