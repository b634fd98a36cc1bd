package core

import (
	"fmt"
	"testing"

	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// watched wraps a transport to observe what core does at its edges:
// every frame sent, decoded, and the state of the calling proc's outbox at
// every point the proc can park (a future not yet done, a busy
// semaphore, the dispatcher's Recv). Name passes through, so core
// configures itself exactly as for the wrapped transport.
type watched struct {
	rt.Transport
	t     *testing.T
	sys   *System
	sends []sentEnvelope
	// drop, when set, keeps what is sent from the wire: SendFrame records
	// the frame and gives its buffer back.
	drop bool
}

type sentEnvelope struct {
	dst int
	msg wire.Message
}

func (w *watched) mustBeEmpty(node int, p rt.Proc, where string) {
	if o := w.sys.nodes[node].outboxes[p]; o != nil && len(o.dsts) > 0 {
		w.t.Errorf("%s parks at %s with %d destinations still queued", p.Name(), where, len(o.dsts))
	}
}

// SendFrame records the decoded frame before the transport takes it over.
func (w *watched) SendFrame(p rt.Proc, src, dst int, bp *[]byte) {
	msg, err := wire.Unmarshal(*bp)
	if err != nil {
		w.t.Fatalf("core sent a frame that does not decode: %v", err)
	}
	w.sends = append(w.sends, sentEnvelope{dst, msg})
	if w.drop {
		wire.PutBuf(bp)
		return
	}
	w.Transport.SendFrame(p, src, dst, bp)
}

func (w *watched) Recv(p rt.Proc, node int) rt.Envelope {
	w.mustBeEmpty(node, p, "Recv")
	return w.Transport.Recv(p, node)
}

type watchedFuture struct {
	rt.Future
	w    *watched
	node int
	name string
}

func (f watchedFuture) Wait(p rt.Proc) any {
	if !f.Done() {
		f.w.mustBeEmpty(f.node, p, f.name)
	}
	return f.Future.Wait(p)
}

func (w *watched) NewFuture(node int, name string) rt.Future {
	return watchedFuture{w.Transport.NewFuture(node, name), w, node, name}
}

type watchedSemaphore struct {
	rt.Semaphore
	w    *watched
	node int
	name string
}

func (s watchedSemaphore) Acquire(p rt.Proc) {
	if s.Busy() {
		s.w.mustBeEmpty(s.node, p, s.name)
	}
	s.Semaphore.Acquire(p)
}

func (w *watched) NewSemaphore(node int, name string, permits int) rt.Semaphore {
	return watchedSemaphore{w.Transport.NewSemaphore(node, name, permits), w, node, name}
}

// watchedSystem builds a machine on a watched simulator.
func watchedSystem(t *testing.T, cfg Config, decls []Decl, locks []LockDecl, barriers []BarrierDecl) (*System, *watched) {
	t.Helper()
	w := &watched{Transport: rt.NewSim(model.Default(), cfg.Processors), t: t}
	cfg.Transport = w
	w.sys = NewSystem(cfg, decls, locks, barriers)
	return w.sys, w
}

// mark is a message every dispatcher ignores (a phase change for an
// address nobody declared), tagged so the tests can tell sends apart.
func mark(tag int) wire.Message { return wire.PhaseChange{Addr: vm.Addr(tag)} }

func tagsOf(t *testing.T, msg wire.Message) []int {
	t.Helper()
	msgs := []wire.Message{msg}
	if b, ok := msg.(wire.Batch); ok {
		msgs = b.Msgs
	}
	var tags []int
	for _, m := range msgs {
		pc, ok := m.(wire.PhaseChange)
		if !ok {
			t.Fatalf("unexpected %v on the wire", m.Kind())
		}
		tags = append(tags, int(pc.Addr))
	}
	return tags
}

// TestOutboxOrderAndCoalescing drives one proc's outbox directly: what it
// sends — unicasts and a broadcast, the two idioms that used to take
// different routes to the transport — stays off the wire until the
// flush, then leaves as one envelope per destination, destinations in
// first-enqueue order, each envelope's riders in send order.
func TestOutboxOrderAndCoalescing(t *testing.T) {
	sys, w := watchedSystem(t, Config{Processors: 4, Batching: true}, nil, nil, nil)
	err := sys.Run(func(root *Thread) {
		n, p := root.node, root.proc
		n.send(p, 2, mark(1))
		n.send(p, 1, mark(2))
		n.broadcast(p, mark(3)) // to 1, 2 and 3
		n.send(p, 2, mark(4))
		n.send(p, 3, mark(5))
		if len(w.sends) != 0 {
			t.Errorf("%d transport sends before the flush", len(w.sends))
		}
		n.flush(p)
		want := []struct {
			dst  int
			tags []int
		}{{2, []int{1, 3, 4}}, {1, []int{2, 3}}, {3, []int{3, 5}}}
		if len(w.sends) != len(want) {
			t.Fatalf("%d transport sends for %d destinations", len(w.sends), len(want))
		}
		for i, e := range w.sends {
			if _, ok := e.msg.(wire.Batch); !ok {
				t.Errorf("send %d to node %d is a bare %v, want one wire.Batch", i, e.dst, e.msg.Kind())
			}
			if got := tagsOf(t, e.msg); e.dst != want[i].dst || fmt.Sprint(got) != fmt.Sprint(want[i].tags) {
				t.Errorf("send %d: node %d carries %v, want node %d carrying %v", i, e.dst, got, want[i].dst, want[i].tags)
			}
		}
		// One queued message travels bare: an envelope of one is only framing.
		n.send(p, 1, mark(6))
		n.flush(p)
		if last := w.sends[len(w.sends)-1]; last.msg.Kind() != wire.KindPhaseChange {
			t.Errorf("a lone message left as %v", last.msg.Kind())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOutboxReturnsPayloadAtOnce: with batching on, a payload buffer
// handed to sent is back in the pool before the flush; the outbox holds
// only the frame it encoded.
func TestOutboxReturnsPayloadAtOnce(t *testing.T) {
	sys, w := watchedSystem(t, Config{Processors: 2, Batching: true}, nil, nil, nil)
	w.drop = true
	err := sys.Run(func(root *Thread) {
		n, p := root.node, root.proc
		before := wire.Outstanding()
		bp := wire.GetBufN(8)
		*bp = append(*bp, 1, 2, 3, 4, 5, 6, 7, 8)
		n.send(p, 1, wire.ReadReply{Addr: page(0), Data: *bp})
		n.sent(bp)
		if d := wire.Outstanding() - before; d != 1 || len(w.sends) != 0 {
			t.Errorf("after sent and before the flush: %d buffers borrowed (want the one queued frame), %d sends", d, len(w.sends))
		}
		n.flush(p)
		if d := wire.Outstanding() - before; d != 0 || len(w.sends) != 1 {
			t.Errorf("after the flush: %d buffers borrowed, %d sends", d, len(w.sends))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOutboxSendsWhatWasSent: with batching on, what leaves at the flush
// is the message as it was when n.send took it, not its source slices as
// they are at the flush.
func TestOutboxSendsWhatWasSent(t *testing.T) {
	sys, w := watchedSystem(t, Config{Processors: 2, Batching: true}, nil, nil, nil)
	w.drop = true
	err := sys.Run(func(root *Thread) {
		n, p := root.node, root.proc
		data := []byte{1, 2, 3, 4}
		n.send(p, 1, wire.ReadReply{Addr: page(0), Data: data})
		n.send(p, 1, mark(1))
		data[0] = 9
		n.flush(p)
		if len(w.sends) != 1 {
			t.Fatalf("%d sends, want one batch", len(w.sends))
		}
		b, ok := w.sends[0].msg.(wire.Batch)
		if !ok || len(b.Msgs) != 2 {
			t.Fatalf("sent %v, want a batch of two", w.sends[0].msg.Kind())
		}
		if got := b.Msgs[0].(wire.ReadReply).Data; string(got) != string([]byte{1, 2, 3, 4}) {
			t.Errorf("delivered %v, want the data as sent, [1 2 3 4]", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOutboxOperationEnd pins the operation-end flush: nothing stays
// queued past it.
func TestOutboxOperationEnd(t *testing.T) {
	queued := func(n *Node, p rt.Proc) int {
		if o := n.outboxes[p]; o != nil {
			return len(o.dsts)
		}
		return 0
	}
	t.Run("no window", func(t *testing.T) {
		sys, w := watchedSystem(t, Config{Processors: 2, Batching: true}, nil, nil, nil)
		err := sys.Run(func(root *Thread) {
			n, p := root.node, root.proc
			n.send(p, 1, mark(1))
			root.endSystem(root.system())
			if queued(n, p) != 0 || len(w.sends) != 1 {
				t.Errorf("after the operation: %d destinations queued, %d sends", queued(n, p), len(w.sends))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestOutboxFlushesBeforeBusyAcquire: a proc about to park on a semaphore
// another local proc holds sends what it has queued first (watched
// reports it otherwise); a free semaphore costs no flush.
func TestOutboxFlushesBeforeBusyAcquire(t *testing.T) {
	sys, w := watchedSystem(t, Config{Processors: 2, Batching: true}, nil, nil, nil)
	err := sys.Run(func(root *Thread) {
		n, p := root.node, root.proc
		sem := sys.tr.NewSemaphore(0, "test", 1)
		n.send(p, 1, mark(1))
		n.acquire(p, sem)
		if len(w.sends) != 0 {
			t.Errorf("%d sends before acquiring a free semaphore", len(w.sends))
		}
		root.Spawn(0, "contender", func(ct *Thread) {
			n.send(ct.proc, 1, mark(2))
			n.acquire(ct.proc, sem)
			sem.Release()
		})
		p.Yield() // the contender runs up to its park
		if len(w.sends) != 1 || fmt.Sprint(tagsOf(t, w.sends[0].msg)) != "[2]" {
			t.Errorf("the contender parked with its message unsent (%d sends)", len(w.sends))
		}
		sem.Release()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOutboxNeverParksLoaded runs a lock- and barrier-synchronized
// write-shared workload under every batching mode and both engines on a
// watched simulator: no proc may reach a park point (watched reports
// it), the dispatchers may not be left holding anything when the machine
// stops, and the result must be the sequential one.
func TestOutboxNeverParksLoaded(t *testing.T) {
	const procs, rounds = 4, 6
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"batched", Config{Batching: true}},
		{"batched acked", Config{Batching: true, AwaitUpdateAcks: true}},
		{"batched tree", Config{Batching: true, BarrierTree: true, BarrierFanout: 2}},
		{"batched lazy", Config{Batching: true, Lazy: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Processors = procs
			decl := Decl{Name: "ctr", Start: page(0), Size: 8192, Annot: protocol.WriteShared, Synchq: -1}
			sys, _ := watchedSystem(t, cfg, []Decl{decl},
				[]LockDecl{{ID: 1, Home: 0}}, []BarrierDecl{{ID: 9, Home: 0, Expected: 2 * procs}})
			err := sys.Run(func(root *Thread) {
				for i := 0; i < 2*procs-1; i++ {
					// Two threads on most nodes: local lock hand-offs and
					// several local barrier waiters are on the path.
					root.Spawn(i%procs, fmt.Sprintf("w%d", i), func(wt *Thread) {
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
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range sys.nodes {
				for p, o := range n.outboxes {
					if len(o.dsts) > 0 {
						t.Errorf("node %d: %s finished with %d destinations queued", n.id, p.Name(), len(o.dsts))
					}
				}
			}
			if got, want := sys.FinalImage()[page(0)][:4], words((2*procs-1)*rounds); string(got) != string(want) {
				t.Errorf("counter = %v, want %v", got, want)
			}
		})
	}
}

// TestUpdateAcksFollowTransportAndBatching holds the outbox's third
// rule: an outbox gives up sender order across destinations, so wherever
// one meets a transport that really runs concurrently, releases wait for
// their updates to be acknowledged. The simulator keeps the prototype's
// unacknowledged flush either way.
func TestUpdateAcksFollowTransportAndBatching(t *testing.T) {
	const procs = 2
	for _, tc := range []struct {
		name string
		tr   func() rt.Transport
		cfg  Config
		want bool
	}{
		{"sim", func() rt.Transport { return rt.NewSim(model.Default(), procs) }, Config{}, false},
		{"sim batched", func() rt.Transport { return rt.NewSim(model.Default(), procs) }, Config{Batching: true}, false},
		{"chan", func() rt.Transport { return rt.NewChan(model.Default(), procs) }, Config{}, false},
		{"chan batched", func() rt.Transport { return rt.NewChan(model.Default(), procs) }, Config{Batching: true}, true},
	} {
		cfg := tc.cfg
		cfg.Processors = procs
		cfg.Transport = tc.tr()
		if got := NewSystem(cfg, nil, nil, nil).cfg.AwaitUpdateAcks; got != tc.want {
			t.Errorf("%s: AwaitUpdateAcks = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !needsUpdateAcks("mux", false) {
		t.Error("mux without batching must still await update acks (per-pair FIFO only)")
	}
}
