package network

import (
	"testing"

	"munin/internal/sim"
	"munin/internal/wire"
)

// TestCloseReturnsFrames stops a run with frames still on the wire and
// frames queued in an inbox nobody reads, with and without a Drop fault
// cutting every other one: once Close has run, every pooled buffer the
// sends took is back.
func TestCloseReturnsFrames(t *testing.T) {
	for _, drop := range []bool{false, true} {
		before := wire.Outstanding()
		s := sim.New()
		nw := New(s, testModel(), 2)
		if drop {
			nw.Faults = &Faults{Drop: func(src, dst int, m wire.Message) bool {
				return m.(wire.UpdateAck).Count%2 == 0
			}}
		}
		var queued, inflight int
		s.Spawn("sender", func(p *sim.Proc) {
			for i := uint32(0); i < 20; i++ {
				nw.Send(p, 0, 1, wire.UpdateAck{Count: i})
			}
			queued, inflight = nw.Pending(1), nw.Stats().Sends-nw.Stats().Delivered
			s.Stop()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		nw.Close()
		if queued == 0 || inflight == 0 {
			t.Errorf("drop=%v: stopped with %d frames queued and %d on the wire, want some of each", drop, queued, inflight)
		}
		if drop && nw.Faults.Dropped() != 10 {
			t.Errorf("drop=%v: %d frames dropped, want 10", drop, nw.Faults.Dropped())
		}
		if d := wire.Outstanding() - before; d != 0 {
			t.Errorf("drop=%v: %d pooled buffers still borrowed after Close", drop, d)
		}
	}
}

// TestRecvFrameCarriesTheFrame: what a receiver gets is the sender's
// encoding, undecoded, in a buffer the envelope owns.
func TestRecvFrameCarriesTheFrame(t *testing.T) {
	before := wire.Outstanding()
	s := sim.New()
	nw := New(s, testModel(), 2)
	msg := wire.LockAcq{Lock: 3, Requester: 0}
	var env Envelope
	s.Spawn("sender", func(p *sim.Proc) { nw.Send(p, 0, 1, msg) })
	s.Spawn("receiver", func(p *sim.Proc) { env = nw.RecvFrame(p, 1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Msg != nil || string(env.Frame()) != string(wire.Marshal(msg)) {
		t.Errorf("received %+v, frame %v; want the bare frame %v", env.Msg, env.Frame(), wire.Marshal(msg))
	}
	env.Release()
	if d := wire.Outstanding() - before; d != 0 {
		t.Errorf("%d pooled buffers still borrowed", d)
	}
}

// BenchmarkSimSendRecv measures one frame sent, delivered and received
// on the simulated network: the frame is the receiver's buffer, and the
// delivery a reused record. It must report 0 allocs/op; the CI zero-copy
// receive gate fails otherwise.
func BenchmarkSimSendRecv(b *testing.B) {
	s := sim.New()
	nw := New(s, testModel(), 2)
	msg := wire.LockAcq{Lock: 7, Requester: 0}
	b.ReportAllocs()
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			nw.SendFrame(p, 0, 1, wire.Encode(msg))
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			env := nw.RecvFrame(p, 1)
			env.Release()
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
