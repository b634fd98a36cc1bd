package rt_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// This file is the transport conformance suite: every behavioral contract
// the runtime (internal/core) leans on, asserted identically against all
// three Transport implementations via eachTransport. The fault-injection
// and deadlock-watchdog contracts live in rt_test.go; this file covers
// the zero-copy envelope lifecycle, broadcast fan-out and context
// cancellation.

// payload builds a page-carrying message so borrowed buffers span the
// pool's size classes, not just the smallest one.
func payload(src, seq, size int) wire.Message {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(seq + i)
	}
	return wire.ReadReply{Addr: vm.Addr(0x10000 + src*1000 + seq), Owner: uint8(src), Data: data}
}

// TestConformanceReleaseBalance drives all-to-all traffic with page-sized
// payloads, releases every envelope after inspection, and requires the
// pooled-buffer outstanding count to return to its baseline once the
// machine stops. On chan and mux every received envelope borrows a pooled
// buffer, so a missing Release (or a double Put) shows up as a nonzero
// delta; on sim Release is a no-op and the delta proves it stays one.
func TestConformanceReleaseBalance(t *testing.T) {
	const nodes, perPair = 4, 8
	baseline := wire.Outstanding()
	eachTransport(t, nodes, func(t *testing.T, tr rt.Transport) {
		var done atomic.Int32
		for n := 0; n < nodes; n++ {
			n := n
			tr.Spawn(n, fmt.Sprintf("sender%d", n), func(p rt.Proc) {
				for seq := 0; seq < perPair; seq++ {
					for dst := 0; dst < nodes; dst++ {
						if dst != n {
							tr.Send(p, n, dst, payload(n, seq, 1<<uint(seq%8)*64))
						}
					}
				}
			})
			tr.Spawn(n, fmt.Sprintf("receiver%d", n), func(p rt.Proc) {
				next := make(map[int]int)
				for i := 0; i < (nodes-1)*perPair; i++ {
					env := tr.Recv(p, n)
					m := env.Msg.(wire.ReadReply)
					seq := int(m.Addr) - 0x10000 - env.Src*1000
					if seq != next[env.Src] {
						t.Errorf("%s: node %d got seq %d from %d, want %d",
							tr.Name(), n, seq, env.Src, next[env.Src])
					}
					next[env.Src]++
					if want := byte(seq); len(m.Data) > 0 && m.Data[0] != want {
						t.Errorf("%s: node %d payload from %d corrupted", tr.Name(), n, env.Src)
					}
					env.Release()
				}
				if done.Add(1) == nodes {
					tr.Stop()
				}
			})
		}
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		if got := wire.Outstanding() - baseline; got != 0 {
			t.Fatalf("%s: %d pooled buffers still borrowed after Run", tr.Name(), got)
		}
	})
}

// TestConformanceConcurrentSenders has eight nodes send to every other
// node from two procs each, all at once. A proc's sends to one
// destination are ordered, so per-(src,dst) FIFO means each proc's
// sequence arrives in order whatever the transport does to combine or
// interleave traffic — on mux, sixteen procs appending to shared lanes
// while the writers drain them.
func TestConformanceConcurrentSenders(t *testing.T) {
	const nodes, procs, perProc = 8, 2, 40
	baseline := wire.Outstanding()
	eachTransport(t, nodes, func(t *testing.T, tr rt.Transport) {
		var done atomic.Int32
		for n := 0; n < nodes; n++ {
			n := n
			for k := 0; k < procs; k++ {
				k := k
				tr.Spawn(n, fmt.Sprintf("sender%d.%d", n, k), func(p rt.Proc) {
					for seq := 0; seq < perProc; seq++ {
						for dst := 0; dst < nodes; dst++ {
							if dst != n {
								tr.Send(p, n, dst, msg(k, seq))
							}
						}
					}
				})
			}
			tr.Spawn(n, fmt.Sprintf("receiver%d", n), func(p rt.Proc) {
				var next [nodes][procs]int
				for i := 0; i < (nodes-1)*procs*perProc; i++ {
					env := tr.Recv(p, n)
					m := env.Msg.(wire.ReduceReply)
					k, seq := int(m.Addr)-0x10000, int(m.Old)
					if seq != next[env.Src][k] {
						t.Errorf("%s: node %d got seq %d from proc %d of node %d, want %d",
							tr.Name(), n, seq, k, env.Src, next[env.Src][k])
					}
					next[env.Src][k] = seq + 1
					env.Release()
				}
				if done.Add(1) == nodes {
					tr.Stop()
				}
			})
		}
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		if got := wire.Outstanding() - baseline; got != 0 {
			t.Fatalf("%s: %d pooled buffers still borrowed after Run", tr.Name(), got)
		}
	})
}

// TestConformanceBroadcast checks a send to every other node — the loop
// core's broadcast is — reaches each of them exactly once.
func TestConformanceBroadcast(t *testing.T) {
	const nodes = 5
	eachTransport(t, nodes, func(t *testing.T, tr rt.Transport) {
		var done atomic.Int32
		tr.Spawn(2, "caster", func(p rt.Proc) {
			for dst := 0; dst < nodes; dst++ {
				if dst != 2 {
					tr.Send(p, 2, dst, msg(2, 77))
				}
			}
		})
		for n := 0; n < nodes; n++ {
			if n == 2 {
				continue
			}
			n := n
			tr.Spawn(n, fmt.Sprintf("listener%d", n), func(p rt.Proc) {
				env := tr.Recv(p, n)
				if env.Src != 2 || int(env.Msg.(wire.ReduceReply).Old) != 77 {
					t.Errorf("%s: node %d got %v from %d", tr.Name(), n, env.Msg, env.Src)
				}
				env.Release()
				if done.Add(1) == nodes-1 {
					tr.Stop()
				}
			})
		}
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		if got := tr.Stats().TotalMessages(); got != nodes-1 {
			t.Errorf("%s: stats count %d messages, want %d", tr.Name(), got, nodes-1)
		}
	})
}

// TestConformanceContextCancel binds a cancelable context and checks Run
// returns ctx.Err() even though the machine would otherwise run forever.
func TestConformanceContextCancel(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		cb, ok := tr.(rt.ContextBinder)
		if !ok {
			t.Fatalf("%s: transport does not implement ContextBinder", tr.Name())
		}
		ctx, cancel := context.WithCancel(context.Background())
		cb.BindContext(ctx)
		tr.Spawn(1, "pinger", func(p rt.Proc) {
			for seq := 0; ; seq++ {
				tr.Send(p, 1, 0, msg(1, seq))
				p.Advance(1000)
			}
		})
		tr.Spawn(0, "sink", func(p rt.Proc) {
			for {
				env := tr.Recv(p, 0)
				env.Release()
			}
		})
		timer := time.AfterFunc(30*time.Millisecond, cancel)
		defer timer.Stop()
		if err := tr.Run(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Run = %v, want context.Canceled", tr.Name(), err)
		}
	})
}

// TestConformanceStoppedRunReturnsQueued stops a machine while page-sized
// envelopes nobody will ever receive sit in an inbox (chan) or are still
// crossing a socket (mux): teardown owns whatever was delivered and not
// picked up, so the outstanding count must still return to its baseline.
func TestConformanceStoppedRunReturnsQueued(t *testing.T) {
	const queued = 16
	baseline := wire.Outstanding()
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		tr.Spawn(1, "sender", func(p rt.Proc) {
			for seq := 0; seq < queued; seq++ {
				tr.Send(p, 1, 0, payload(1, seq, 8<<10))
			}
			tr.Stop()
		})
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		if got := wire.Outstanding() - baseline; got != 0 {
			t.Fatalf("%s: %d pooled buffers still borrowed after a stopped Run", tr.Name(), got)
		}
	})
}

// TestConformanceCutReturnsBuffer drops every message at the fault hook:
// a cut envelope is encoded but never delivered, and its encode buffer
// must go back to the pool all the same.
func TestConformanceCutReturnsBuffer(t *testing.T) {
	const total = 10
	baseline := wire.Outstanding()
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		faults := &rt.Faults{Drop: func(src, dst int, m wire.Message) bool { return true }}
		tr.SetFaults(faults)
		tr.Spawn(1, "sender", func(p rt.Proc) {
			for seq := 0; seq < total; seq++ {
				tr.Send(p, 1, 0, payload(1, seq, 8<<10))
			}
		})
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		if d := faults.Dropped(); d != total {
			t.Errorf("%s: Dropped = %d, want %d", tr.Name(), d, total)
		}
		if got := wire.Outstanding() - baseline; got != 0 {
			t.Fatalf("%s: %d pooled buffers still borrowed after %d cut sends", tr.Name(), got, total)
		}
	})
}

// TestConformanceNoSenderAliasing overwrites a payload the moment Send
// returns. The receiver looks at it only after a second message has
// arrived behind it (per-pair FIFO), so the overwrite has certainly
// happened: the bytes it sees must be the ones that were sent, whichever
// buffer the transport decoded them from.
func TestConformanceNoSenderAliasing(t *testing.T) {
	const size = 8 << 10
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		tr.Spawn(1, "sender", func(p rt.Proc) {
			m := payload(1, 5, size).(wire.ReadReply)
			tr.Send(p, 1, 0, m)
			for i := range m.Data {
				m.Data[i] = 0xEE
			}
			tr.Send(p, 1, 0, msg(1, 0))
		})
		tr.Spawn(0, "receiver", func(p rt.Proc) {
			first := tr.Recv(p, 0)
			second := tr.Recv(p, 0)
			second.Release()
			data := first.Msg.(wire.ReadReply).Data
			if len(data) != size {
				t.Errorf("%s: payload of %d bytes, want %d", tr.Name(), len(data), size)
			}
			for i, b := range data {
				if want := byte(5 + i); b != want {
					t.Errorf("%s: payload byte %d = %#x, want %#x (receiver aliases sender memory)",
						tr.Name(), i, b, want)
					break
				}
			}
			first.Release()
			tr.Stop()
		})
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
	})
}

// TestConformanceWakeups parks one proc of a node on each thing a proc
// can wait for — the inbox, two different futures, a semaphore — and fires
// them one at a time, in an order that is not the order they parked in.
// Each waiter must come back when its own event fires: the live
// transports wake only the procs parked on what fired, so a wake-up
// routed to the wrong waiter is a proc that sleeps forever. The four then
// park again on things nobody fires, and Stop must unwind them all (Run on
// a live transport returns only once every proc has exited).
func TestConformanceWakeups(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		futA, futB := tr.NewFuture(0, "a"), tr.NewFuture(0, "b")
		never := tr.NewFuture(0, "never")
		sem := tr.NewSemaphore(0, "s", 1)
		var parking atomic.Int32
		var gotInbox, gotA, gotB, gotSem, send atomic.Bool
		deadline := time.Now().Add(10 * time.Second)
		// until lets virtual and real time pass until cond holds.
		until := func(p rt.Proc, what string, cond func() bool) bool {
			for !cond() {
				if time.Now().After(deadline) {
					t.Errorf("%s: %s never happened", tr.Name(), what)
					tr.Stop()
					return false
				}
				p.Advance(1000)
			}
			return true
		}
		// A waiter announces itself and parks without yielding in between,
		// so once the driver — a proc of the same node — counts an
		// announcement, that waiter is parked.
		waiter := func(name string, got *atomic.Bool, first, again func(p rt.Proc)) {
			tr.Spawn(0, name, func(p rt.Proc) {
				parking.Add(1)
				first(p)
				got.Store(true)
				parking.Add(1)
				again(p)
				t.Errorf("%s: %s came back from a wait nobody ended", tr.Name(), name)
			})
		}
		tr.Spawn(0, "driver", func(p rt.Proc) {
			sem.Acquire(p)
			waiter("on-inbox", &gotInbox,
				func(p rt.Proc) { env := tr.Recv(p, 0); env.Release() },
				func(p rt.Proc) { tr.Recv(p, 0) })
			waiter("on-a", &gotA,
				func(p rt.Proc) { futA.Wait(p) },
				func(p rt.Proc) { never.Wait(p) })
			waiter("on-b", &gotB,
				func(p rt.Proc) { futB.Wait(p) },
				func(p rt.Proc) { never.Wait(p) })
			waiter("on-sem", &gotSem,
				func(p rt.Proc) { sem.Acquire(p) },
				func(p rt.Proc) { sem.Acquire(p) }) // its own permit: never comes back
			if !until(p, "four waiters parking", func() bool { return parking.Load() == 4 }) {
				return
			}
			futB.Complete(2)
			ok := until(p, "wake-up of the waiter on future b", gotB.Load)
			sem.Release()
			ok = ok && until(p, "wake-up of the waiter on the semaphore", gotSem.Load)
			send.Store(true)
			ok = ok && until(p, "wake-up of the waiter on the inbox", gotInbox.Load)
			futA.Complete(1)
			ok = ok && until(p, "wake-up of the waiter on future a", gotA.Load)
			if ok && until(p, "four waiters parking again", func() bool { return parking.Load() == 8 }) {
				tr.Stop()
			}
		})
		tr.Spawn(1, "sender", func(p rt.Proc) {
			if until(p, "the driver's go-ahead", send.Load) {
				tr.Send(p, 1, 0, msg(1, 0))
			}
		})
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
	})
}
