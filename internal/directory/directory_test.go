package directory

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"munin/internal/protocol"
	"munin/internal/vm"
)

func TestCopysetBasics(t *testing.T) {
	var c Copyset
	if !c.Empty() {
		t.Error("zero copyset not empty")
	}
	c = c.Add(3).Add(7).Add(3)
	if c.Count() != 2 {
		t.Errorf("Count = %d, want 2", c.Count())
	}
	if !c.Has(3) || !c.Has(7) || c.Has(0) {
		t.Error("membership wrong")
	}
	c = c.Remove(3)
	if c.Has(3) || !c.Has(7) {
		t.Error("remove wrong")
	}
	nodes := c.Add(1).Nodes(16)
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 7 {
		t.Errorf("Nodes = %v", nodes)
	}
}

func TestCopysetAllUpTo(t *testing.T) {
	for _, n := range []int{1, 16, 64, 256} {
		all := AllUpTo(n)
		if !all.Has(0) || !all.Has(n-1) || all.Has(n) {
			t.Errorf("AllUpTo(%d) membership wrong", n)
		}
		if got := len(all.Nodes(n)); got != n {
			t.Errorf("AllUpTo(%d).Nodes = %d entries", n, got)
		}
	}
}

func TestCopysetProperty(t *testing.T) {
	f := func(nodes []uint8) bool {
		var c Copyset
		uniq := map[int]bool{}
		for _, n := range nodes {
			id := int(n) // 0–255: exercises the inline word and the overflow words
			c = c.Add(id)
			uniq[id] = true
		}
		if c.Count() != len(uniq) {
			return false
		}
		for id := range uniq {
			if !c.Has(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func entryAt(start vm.Addr, size int) *Entry {
	return &Entry{
		Start:  start,
		Size:   size,
		Annot:  protocol.WriteShared,
		Params: protocol.WriteShared.Params(),
		Synchq: -1,
	}
}

func TestTableLookupSinglePage(t *testing.T) {
	tab := NewTable(vm.DefaultPageSize)
	e := entryAt(vm.SharedBase, vm.DefaultPageSize)
	tab.Insert(e)
	got, ok := tab.Lookup(vm.SharedBase + 100)
	if !ok || got != e {
		t.Fatal("lookup inside object failed")
	}
	if _, ok := tab.Lookup(vm.SharedBase + vm.Addr(vm.DefaultPageSize)); ok {
		t.Error("lookup past object succeeded")
	}
}

func TestTableLookupMultiPageObject(t *testing.T) {
	tab := NewTable(vm.DefaultPageSize)
	e := entryAt(vm.SharedBase, 3*vm.DefaultPageSize)
	tab.Insert(e)
	for off := 0; off < 3*vm.DefaultPageSize; off += vm.DefaultPageSize / 2 {
		got, ok := tab.Lookup(vm.SharedBase + vm.Addr(off))
		if !ok || got != e {
			t.Fatalf("lookup at offset %d failed", off)
		}
	}
}

func TestTableSubPageObject(t *testing.T) {
	// An object smaller than a page: lookups within its extent hit,
	// lookups elsewhere in the page miss (the entry doesn't own the rest).
	tab := NewTable(vm.DefaultPageSize)
	e := entryAt(vm.SharedBase, 64)
	tab.Insert(e)
	if _, ok := tab.Lookup(vm.SharedBase + 63); !ok {
		t.Error("lookup inside sub-page object failed")
	}
	if _, ok := tab.Lookup(vm.SharedBase + 64); ok {
		t.Error("lookup past sub-page object succeeded")
	}
}

func TestTableOverlapPanics(t *testing.T) {
	tab := NewTable(vm.DefaultPageSize)
	tab.Insert(entryAt(vm.SharedBase, vm.DefaultPageSize))
	defer func() {
		if recover() == nil {
			t.Error("overlapping insert did not panic")
		}
	}()
	tab.Insert(entryAt(vm.SharedBase+4, 8))
}

func TestTableRemove(t *testing.T) {
	tab := NewTable(vm.DefaultPageSize)
	e := entryAt(vm.SharedBase, 2*vm.DefaultPageSize)
	tab.Insert(e)
	tab.Remove(e)
	if tab.Len() != 0 {
		t.Error("Len after remove != 0")
	}
	if _, ok := tab.Lookup(vm.SharedBase); ok {
		t.Error("lookup after remove succeeded")
	}
	// Re-inserting with different granularity now works.
	tab.Insert(entryAt(vm.SharedBase, vm.DefaultPageSize))
	tab.Insert(entryAt(vm.SharedBase+vm.Addr(vm.DefaultPageSize), vm.DefaultPageSize))
	if tab.Len() != 2 {
		t.Error("reinsert failed")
	}
}

func TestEntriesSorted(t *testing.T) {
	tab := NewTable(vm.DefaultPageSize)
	tab.Insert(entryAt(vm.SharedBase+vm.Addr(2*vm.DefaultPageSize), vm.DefaultPageSize))
	tab.Insert(entryAt(vm.SharedBase, vm.DefaultPageSize))
	es := slices.Collect(tab.All())
	if len(es) != 2 || es[0].Start > es[1].Start {
		t.Errorf("entries not sorted: %v", es)
	}

	// The table keeps the order itself, through inserts in any order and
	// removals.
	pageAt := func(i int) vm.Addr { return vm.SharedBase + vm.Addr(i*vm.DefaultPageSize) }
	var mid *Entry
	for _, i := range []int{7, 1, 5, 3, 9, 4} {
		e := entryAt(pageAt(i), vm.DefaultPageSize)
		e.Group = pageAt(1)
		if i == 5 {
			mid = e
		}
		tab.Insert(e)
	}
	tab.Remove(mid)
	tab.Insert(entryAt(pageAt(6), vm.DefaultPageSize))
	es = slices.Collect(tab.All())
	var got []int
	for _, e := range es {
		got = append(got, int(e.Start-vm.SharedBase)/vm.DefaultPageSize)
	}
	if want := []int{0, 1, 2, 3, 4, 6, 7, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("entries at pages %v, want %v", got, want)
	}
	got = got[:0]
	for _, e := range tab.GroupEntries(pageAt(1)) {
		got = append(got, int(e.Start-vm.SharedBase)/vm.DefaultPageSize)
	}
	if want := []int{1, 3, 4, 7, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("group entries at pages %v, want %v", got, want)
	}
}

func TestEntryContains(t *testing.T) {
	e := entryAt(vm.SharedBase, 100)
	if !e.Contains(vm.SharedBase) || !e.Contains(vm.SharedBase+99) {
		t.Error("Contains misses interior")
	}
	if e.Contains(vm.SharedBase + 100) {
		t.Error("Contains includes End")
	}
	if e.End() != vm.SharedBase+100 {
		t.Error("End wrong")
	}
}

func TestEntryStringMentionsAnnotation(t *testing.T) {
	e := entryAt(vm.SharedBase, 8)
	if s := e.String(); s == "" {
		t.Error("empty String")
	}
}

func TestSynchTable(t *testing.T) {
	st := NewSynchTable()
	st.Insert(&SynchEntry{ID: 1, Kind: SynchLock, Home: 0, Succ: -1})
	st.Insert(&SynchEntry{ID: 2, Kind: SynchBarrier, Home: 0, Expected: 4})
	if st.Len() != 2 {
		t.Errorf("Len = %d", st.Len())
	}
	e, ok := st.Lookup(1)
	if !ok || e.Kind != SynchLock {
		t.Error("lock lookup failed")
	}
	if _, ok := st.Lookup(9); ok {
		t.Error("phantom lookup succeeded")
	}
}

func TestSynchTableDuplicatePanics(t *testing.T) {
	st := NewSynchTable()
	st.Insert(&SynchEntry{ID: 1})
	defer func() {
		if recover() == nil {
			t.Error("duplicate synch insert did not panic")
		}
	}()
	st.Insert(&SynchEntry{ID: 1})
}

func TestSynchKindString(t *testing.T) {
	if SynchLock.String() != "lock" || SynchBarrier.String() != "barrier" {
		t.Error("kind names wrong")
	}
}
