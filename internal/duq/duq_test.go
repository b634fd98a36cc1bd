package duq

import (
	"testing"

	"munin/internal/directory"
	"munin/internal/protocol"
	"munin/internal/vm"
)

func entry(start vm.Addr, size int) *directory.Entry {
	return &directory.Entry{
		Start:  start,
		Size:   size,
		Annot:  protocol.WriteShared,
		Params: protocol.WriteShared.Params(),
		Synchq: -1,
	}
}

func TestEnqueueDrainOrder(t *testing.T) {
	q := New()
	a := entry(vm.SharedBase, 16)
	b := entry(vm.SharedBase+0x2000, 16)
	q.Enqueue(a)
	q.Enqueue(b)
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	if !a.Enqueued || !b.Enqueued {
		t.Error("Enqueued bits not set")
	}
	c := entry(vm.SharedBase+0x4000, 16)
	got := q.DrainInto([]*directory.Entry{c})
	if len(got) != 3 || got[0] != c || got[1] != a || got[2] != b {
		t.Errorf("DrainInto = %v", got)
	}
	if a.Enqueued || b.Enqueued {
		t.Error("Enqueued bits not cleared by DrainInto")
	}
	if q.Len() != 0 {
		t.Error("queue not empty after DrainInto")
	}
	// The queue refills its own array, never the drained slice.
	q.Enqueue(a)
	if got[1] != a || got[2] != b || q.Len() != 1 {
		t.Errorf("an enqueue after DrainInto changed the drained slice: %v", got)
	}
}

func TestDoubleEnqueuePanics(t *testing.T) {
	q := New()
	a := entry(vm.SharedBase, 16)
	q.Enqueue(a)
	defer func() {
		if recover() == nil {
			t.Error("double enqueue did not panic")
		}
	}()
	q.Enqueue(a)
}

func TestRemove(t *testing.T) {
	q := New()
	a := entry(vm.SharedBase, 16)
	b := entry(vm.SharedBase+0x2000, 16)
	q.Enqueue(a)
	q.Enqueue(b)
	q.Remove(a)
	if a.Enqueued {
		t.Error("Enqueued bit survived Remove")
	}
	if q.Len() != 1 || q.Entries()[0] != b {
		t.Errorf("queue after remove = %v", q.Entries())
	}
	// Removing a non-queued entry is a no-op.
	q.Remove(a)
	if q.Len() != 1 {
		t.Error("no-op remove changed queue")
	}
}

func TestEntriesIsACopy(t *testing.T) {
	q := New()
	q.Enqueue(entry(vm.SharedBase, 16))
	es := q.Entries()
	es[0] = nil
	if q.Entries()[0] == nil {
		t.Error("Entries aliased internal storage")
	}
}

func TestTwinLifecycle(t *testing.T) {
	e := entry(vm.SharedBase, 8)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	MakeTwin(e, data)
	if e.Twin == nil {
		t.Fatal("no twin")
	}
	if &e.Twin[0] != &data[0] {
		t.Error("twin did not adopt the caller's copy")
	}
	DropTwin(e)
	if e.Twin != nil {
		t.Error("twin survived DropTwin")
	}
}

func TestMakeTwinTwicePanics(t *testing.T) {
	e := entry(vm.SharedBase, 4)
	MakeTwin(e, []byte{1, 2, 3, 4})
	defer func() {
		if recover() == nil {
			t.Error("second twin did not panic")
		}
	}()
	MakeTwin(e, []byte{1, 2, 3, 4})
}

func TestMakeTwinSizeMismatchPanics(t *testing.T) {
	e := entry(vm.SharedBase, 8)
	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	MakeTwin(e, []byte{1})
}

func TestCollectAddrs(t *testing.T) {
	q := New()
	q.Enqueue(entry(vm.SharedBase, 16))
	q.Enqueue(entry(vm.SharedBase+0x4000, 16))
	addrs := q.CollectAddrs()
	if len(addrs) != 2 || addrs[0] != vm.SharedBase || addrs[1] != vm.SharedBase+0x4000 {
		t.Errorf("CollectAddrs = %v", addrs)
	}
}
