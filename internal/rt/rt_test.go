package rt_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"munin/internal/model"
	"munin/internal/rt"
	"munin/internal/sim"
	"munin/internal/vm"
	"munin/internal/wire"
)

// eachTransport runs fn once per Transport implementation.
func eachTransport(t *testing.T, nodes int, fn func(t *testing.T, tr rt.Transport)) {
	t.Helper()
	cost := model.Default()
	t.Run("sim", func(t *testing.T) { fn(t, rt.NewSim(cost, nodes)) })
	t.Run("chan", func(t *testing.T) { fn(t, rt.NewChan(cost, nodes)) })
	t.Run("mux", func(t *testing.T) {
		tr, err := rt.NewMux(cost, nodes)
		if err != nil {
			t.Fatalf("NewMux: %v", err)
		}
		fn(t, tr)
	})
}

// msg encodes (src, seq) into a round-trippable wire message.
func msg(src, seq int) wire.Message {
	return wire.ReduceReply{Addr: vm.Addr(0x10000 + src), Old: uint32(seq)}
}

// TestDeliveryOrder sends interleaved streams from two nodes to a third
// and checks that everything arrives exactly once with per-sender FIFO
// order intact — the guarantee every transport implementation makes.
func TestDeliveryOrder(t *testing.T) {
	const perSender = 25
	eachTransport(t, 3, func(t *testing.T, tr rt.Transport) {
		var got [][2]int
		for _, src := range []int{1, 2} {
			src := src
			tr.Spawn(src, fmt.Sprintf("sender%d", src), func(p rt.Proc) {
				for seq := 0; seq < perSender; seq++ {
					tr.Send(p, src, 0, msg(src, seq))
				}
			})
		}
		tr.Spawn(0, "receiver", func(p rt.Proc) {
			for i := 0; i < 2*perSender; i++ {
				env := tr.Recv(p, 0)
				m := env.Msg.(wire.ReduceReply)
				got = append(got, [2]int{env.Src, int(m.Old)})
			}
			tr.Stop()
		})
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		if len(got) != 2*perSender {
			t.Fatalf("%s: received %d messages, want %d", tr.Name(), len(got), 2*perSender)
		}
		next := map[int]int{1: 0, 2: 0}
		for _, g := range got {
			if g[1] != next[g[0]] {
				t.Fatalf("%s: sender %d delivered seq %d, want %d (per-pair FIFO violated)",
					tr.Name(), g[0], g[1], next[g[0]])
			}
			next[g[0]]++
		}
		if n := tr.Stats().TotalMessages(); n != 2*perSender {
			t.Errorf("%s: stats count %d messages, want %d", tr.Name(), n, 2*perSender)
		}
	})
}

// TestDropFault drops every even-sequence message and checks the
// receiver sees exactly the odd ones, with the drops counted. The last
// message sent is a delivered one, so every drop has been counted by the
// time the receiver stops the machine, however asynchronous delivery is.
func TestDropFault(t *testing.T) {
	const total = 20
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		faults := &rt.Faults{Drop: func(src, dst int, m wire.Message) bool {
			return m.(wire.ReduceReply).Old%2 == 0
		}}
		tr.SetFaults(faults)
		tr.Spawn(1, "sender", func(p rt.Proc) {
			for seq := 0; seq < total; seq++ {
				tr.Send(p, 1, 0, msg(1, seq))
			}
		})
		var got []int
		tr.Spawn(0, "receiver", func(p rt.Proc) {
			for i := 0; i < total/2; i++ {
				env := tr.Recv(p, 0)
				got = append(got, int(env.Msg.(wire.ReduceReply).Old))
			}
			tr.Stop()
		})
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		for i, seq := range got {
			if seq != 2*i+1 {
				t.Fatalf("%s: received %v, want the odd sequence", tr.Name(), got)
			}
		}
		if d := faults.Dropped(); d != total/2 {
			t.Errorf("%s: Dropped = %d, want %d", tr.Name(), d, total/2)
		}
		if n := tr.Stats().TotalMessages(); n != total/2 {
			t.Errorf("%s: stats count %d delivered messages, want %d", tr.Name(), n, total/2)
		}
	})
}

// TestPartitionFault splits {0,1}|{2} and checks traffic inside a group
// flows while traffic across the cut is discarded and counted.
func TestPartitionFault(t *testing.T) {
	eachTransport(t, 3, func(t *testing.T, tr rt.Transport) {
		faults := &rt.Faults{Partition: []int{0, 0, 1}}
		tr.SetFaults(faults)
		tr.Spawn(1, "inside", func(p rt.Proc) {
			tr.Send(p, 1, 0, msg(1, 7))
		})
		tr.Spawn(2, "outside", func(p rt.Proc) {
			for seq := 0; seq < 5; seq++ {
				tr.Send(p, 2, 0, msg(2, seq)) // all cut
			}
		})
		var got []int
		tr.Spawn(0, "receiver", func(p rt.Proc) {
			env := tr.Recv(p, 0)
			got = append(got, env.Src)
		})
		// No explicit Stop: every proc finishes on its own, which the
		// simulator reports as a drained event queue and the live
		// runtimes as a clean idle (nothing parked, nothing queued).
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("%s: received from %v, want only node 1", tr.Name(), got)
		}
		if d := faults.Dropped(); d != 5 {
			t.Errorf("%s: Dropped = %d, want 5", tr.Name(), d)
		}
	})
}

// TestReorderFault enables delivery reordering and checks the two
// invariants that must survive it: nothing is lost, and per-sender FIFO
// still holds. On the deterministic simulator it additionally asserts
// that reordering actually happened.
func TestReorderFault(t *testing.T) {
	const perSender = 30
	eachTransport(t, 3, func(t *testing.T, tr rt.Transport) {
		faults := &rt.Faults{ReorderSeed: 42}
		tr.SetFaults(faults)
		for _, src := range []int{1, 2} {
			src := src
			tr.Spawn(src, fmt.Sprintf("sender%d", src), func(p rt.Proc) {
				for seq := 0; seq < perSender; seq++ {
					tr.Send(p, src, 0, msg(src, seq))
				}
			})
		}
		var got [][2]int
		tr.Spawn(0, "receiver", func(p rt.Proc) {
			for i := 0; i < 2*perSender; i++ {
				env := tr.Recv(p, 0)
				got = append(got, [2]int{env.Src, int(env.Msg.(wire.ReduceReply).Old)})
			}
			tr.Stop()
		})
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		next := map[int]int{1: 0, 2: 0}
		for _, g := range got {
			if g[1] != next[g[0]] {
				t.Fatalf("%s: sender %d delivered seq %d, want %d (reordering broke per-pair FIFO)",
					tr.Name(), g[0], g[1], next[g[0]])
			}
			next[g[0]]++
		}
		if next[1] != perSender || next[2] != perSender {
			t.Fatalf("%s: lost messages: %v", tr.Name(), next)
		}
		if tr.Name() == "sim" && faults.Reordered() == 0 {
			t.Errorf("sim: reordering enabled but nothing was reordered")
		}
	})
}

// TestDeadlockDetection checks that a proc blocked forever with nothing
// in flight is reported as a deadlock on every transport — the event
// queue draining on the simulator, the idle watchdog on the live
// runtimes.
func TestDeadlockDetection(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		tr.Spawn(0, "starved", func(p rt.Proc) {
			tr.Recv(p, 0) // nobody ever sends
		})
		err := tr.Run()
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("%s: Run = %v, want DeadlockError", tr.Name(), err)
		}
		if len(dl.Blocked) != 1 {
			t.Errorf("%s: blocked list %v, want the one starved proc", tr.Name(), dl.Blocked)
		}
	})
}

// TestLiveDeadlockReportText pins the wording of a live deadlock report
// for each thing a proc can park on: it is what a user reads and what the
// stress job's failure histogram groups by, and it is assembled only when
// a report is written.
func TestLiveDeadlockReportText(t *testing.T) {
	tr := rt.NewChan(model.Default(), 2)
	fut := tr.NewFuture(1, rt.Named("reply"))
	sem := tr.NewSemaphore(1, rt.Named("entry"), 1)
	tr.Spawn(0, "starved", func(p rt.Proc) { tr.Recv(p, 0) })
	tr.Spawn(1, "waiter", func(p rt.Proc) {
		sem.Acquire(p)
		fut.Wait(p)
	})
	tr.Spawn(1, "queued", func(p rt.Proc) {
		for !sem.Busy() {
			p.Yield()
		}
		sem.Acquire(p)
	})
	var dl *sim.DeadlockError
	if err := tr.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	want := []string{"queued: semaphore entry", "starved: inbox[starved]", "waiter: future reply"}
	if !reflect.DeepEqual(dl.Blocked, want) {
		t.Errorf("blocked list %q, want %q", dl.Blocked, want)
	}
}

// TestProcFailure checks a proc panic surfaces as the Run error and
// terminates the other procs.
func TestProcFailure(t *testing.T) {
	boom := errors.New("boom")
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		tr.Spawn(0, "waiter", func(p rt.Proc) {
			tr.Recv(p, 0)
		})
		tr.Spawn(1, "failer", func(p rt.Proc) {
			panic(boom)
		})
		if err := tr.Run(); !errors.Is(err, boom) {
			t.Fatalf("%s: Run = %v, want the proc's panic value", tr.Name(), err)
		}
	})
}

// TestFutureSemaphore exercises the blocking primitives through the
// interface on every transport: a dispatcher completes a future a
// sibling proc waits on, under an entry-style semaphore.
func TestFutureSemaphore(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		sem := tr.NewSemaphore(0, rt.Named("entry"), 1)
		fut := tr.NewFuture(0, rt.Named("reply"))
		var order atomic.Int32
		tr.Spawn(0, "waiter", func(p rt.Proc) {
			sem.Acquire(p)
			tr.Send(p, 0, 1, msg(0, 1))
			if v := fut.Wait(p).(int); v != 99 {
				t.Errorf("%s: future value %v, want 99", tr.Name(), v)
			}
			sem.Release()
			if order.Add(1) == 2 {
				tr.Stop()
			}
		})
		tr.Spawn(0, "dispatcher", func(p rt.Proc) {
			env := tr.Recv(p, 0)
			if env.Src != 1 {
				t.Errorf("%s: dispatcher got message from %d", tr.Name(), env.Src)
			}
			if sem.TryAcquire() {
				t.Errorf("%s: entry semaphore free while the waiter is mid-operation", tr.Name())
			}
			fut.Complete(99)
			if order.Add(1) == 2 {
				tr.Stop()
			}
		})
		tr.Spawn(1, "echo", func(p rt.Proc) {
			env := tr.Recv(p, 1)
			tr.Send(p, 1, 0, env.Msg)
		})
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
	})
}
