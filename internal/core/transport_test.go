package core

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/sim"
	"munin/internal/vm"
	"munin/internal/wire"
)

// transportFor builds a transport by name for a test machine.
func transportFor(t *testing.T, name string, procs int) rt.Transport {
	t.Helper()
	switch name {
	case "sim":
		return rt.NewSim(model.Default(), procs)
	case "chan":
		return rt.NewChan(model.Default(), procs)
	case "mux":
		tr, err := rt.NewMux(model.Default(), procs)
		if err != nil {
			t.Fatalf("NewMux: %v", err)
		}
		return tr
	}
	t.Fatalf("unknown transport %q", name)
	return nil
}

// TestTransportLockCounter passes a lock around every node on each
// transport, with a migratory counter riding the grants, and compares
// the final memory image across transports byte for byte.
func TestTransportLockCounter(t *testing.T) {
	const procs, rounds = 4, 8
	run := func(name string) (map[vm.Addr][]byte, error) {
		decl := Decl{Name: "ctr", Start: page(0), Size: 4, Annot: protocol.Migratory, Synchq: 1}
		sys := NewSystem(Config{Processors: procs, Transport: transportFor(t, name, procs)},
			[]Decl{decl}, []LockDecl{{ID: 1, Home: 0}}, []BarrierDecl{{ID: 9, Home: 0, Expected: procs + 1}})
		sys.AssociateDataAndSynch(1, page(0))
		err := sys.Run(func(root *Thread) {
			for w := 0; w < procs; w++ {
				root.Spawn(w, "worker", func(wt *Thread) {
					for r := 0; r < rounds; r++ {
						wt.AcquireLock(1)
						wt.WriteWord(page(0), wt.ReadWord(page(0))+1)
						wt.ReleaseLock(1)
					}
					wt.WaitAtBarrier(9)
				})
			}
			root.WaitAtBarrier(9)
		})
		return sys.FinalImage(), err
	}
	ref, err := run("sim")
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	want := words(procs * rounds)
	if !bytes.Equal(ref[page(0)], want) {
		t.Fatalf("sim counter = %v, want %v", ref[page(0)], want)
	}
	for _, name := range []string{"chan", "mux"} {
		img, err := run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(img[page(0)], ref[page(0)]) {
			t.Errorf("%s counter = %v, want %v", name, img[page(0)], ref[page(0)])
		}
	}
}

// TestTransportRuntimeError checks that annotation misuse aborts the run
// with a RuntimeError on every transport (the prototype's behaviour).
func TestTransportRuntimeError(t *testing.T) {
	for _, name := range []string{"sim", "chan", "mux"} {
		decl := Decl{Name: "ro", Start: page(0), Size: 4, Annot: protocol.ReadOnly, Synchq: -1}
		sys := NewSystem(Config{Processors: 2, Transport: transportFor(t, name, 2)},
			[]Decl{decl}, nil, nil)
		err := sys.Run(func(root *Thread) {
			root.Spawn(1, "writer", func(w *Thread) {
				w.WriteWord(page(0), 1)
			})
		})
		var re *RuntimeError
		if !errors.As(err, &re) {
			t.Fatalf("%s: Run = %v, want RuntimeError", name, err)
		}
		if re.Op != "write fault" {
			t.Errorf("%s: error op %q, want \"write fault\"", name, re.Op)
		}
	}
}

// TestTransportDropDeadlock exercises the lost-message error path end to
// end on both the simulator and the concurrent runtime: a dropped
// ReadReply leaves the faulting thread blocked forever, which the
// simulator reports via its drained event queue and the live runtime via
// its idle watchdog.
func TestTransportDropDeadlock(t *testing.T) {
	for _, name := range []string{"sim", "chan"} {
		tr := transportFor(t, name, 2)
		var dropped atomic.Int32
		tr.SetFaults(&rt.Faults{Drop: func(src, dst int, m wire.Message) bool {
			if m.Kind() == wire.KindReadReply {
				dropped.Add(1)
				return true
			}
			return false
		}})
		decl := Decl{Name: "tbl", Start: page(0), Size: 4, Annot: protocol.ReadOnly, Synchq: -1}
		decl.Init = words(7)
		sys := NewSystem(Config{Processors: 2, Transport: tr}, []Decl{decl}, nil, nil)
		err := sys.Run(func(root *Thread) {
			root.Spawn(1, "reader", func(w *Thread) {
				w.ReadWord(page(0))
			})
		})
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("%s: Run = %v, want DeadlockError", name, err)
		}
		if dropped.Load() == 0 {
			t.Errorf("%s: no ReadReply was dropped", name)
		}
	}
}

// TestTransportPartitionDeadlock cuts the requester off from the home
// node: its directory fetch can never be answered, and both transports
// must report the stuck machine rather than hang.
func TestTransportPartitionDeadlock(t *testing.T) {
	for _, name := range []string{"sim", "chan"} {
		tr := transportFor(t, name, 3)
		faults := &rt.Faults{Partition: []int{0, 0, 1}}
		tr.SetFaults(faults)
		decl := Decl{Name: "tbl", Start: page(0), Size: 4, Annot: protocol.ReadOnly, Synchq: -1}
		sys := NewSystem(Config{Processors: 3, Transport: tr}, []Decl{decl}, nil, nil)
		err := sys.Run(func(root *Thread) {
			root.Spawn(2, "islanded", func(w *Thread) {
				w.ReadWord(page(0))
			})
		})
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("%s: Run = %v, want DeadlockError", name, err)
		}
		if faults.Dropped() == 0 {
			t.Errorf("%s: partition cut nothing", name)
		}
	}
}
