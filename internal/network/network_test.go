package network

import (
	"reflect"
	"testing"

	"munin/internal/model"
	"munin/internal/sim"
	"munin/internal/vm"
	"munin/internal/wire"
)

func testModel() model.CostModel {
	m := model.Default()
	// Round numbers for easy assertions.
	m.MsgSendCPU = 100 * sim.Microsecond
	m.MsgRecvCPU = 50 * sim.Microsecond
	m.WireLatency = 10 * sim.Microsecond
	m.PerByte = 1 * sim.Microsecond
	m.BusSerialized = true
	return m
}

func TestSendDeliversAndTimes(t *testing.T) {
	s := sim.New()
	nw := New(s, testModel(), 2)
	var got Envelope
	var recvAt sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		nw.Send(p, 0, 1, wire.BarrierRelease{Barrier: 7})
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		got = nw.Recv(p, 1)
		recvAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Msg.(wire.BarrierRelease).Barrier != 7 {
		t.Errorf("delivered %#v", got.Msg)
	}
	size := wire.Size(wire.BarrierRelease{Barrier: 7}) + HeaderBytes
	// Timeline: send CPU 100µs, wire size µs, latency 10µs, recv CPU 50µs.
	wantDeliver := 100*sim.Microsecond + sim.Time(size)*sim.Microsecond + 10*sim.Microsecond
	if got.DeliveredAt != wantDeliver {
		t.Errorf("DeliveredAt = %v, want %v", got.DeliveredAt, wantDeliver)
	}
	if recvAt != wantDeliver+50*sim.Microsecond {
		t.Errorf("recvAt = %v, want %v", recvAt, wantDeliver+50*sim.Microsecond)
	}
	if got.Src != 0 || got.Dst != 1 || got.Bytes != size {
		t.Errorf("envelope = %+v", got)
	}
}

func TestBusSerialization(t *testing.T) {
	m := testModel()
	run := func(serialized bool) sim.Time {
		m.BusSerialized = serialized
		s := sim.New()
		nw := New(s, m, 3)
		payload := make([]byte, 1000)
		s.Spawn("a", func(p *sim.Proc) { nw.Send(p, 0, 2, wire.MPData{Tag: 1, Payload: payload}) })
		s.Spawn("b", func(p *sim.Proc) { nw.Send(p, 1, 2, wire.MPData{Tag: 2, Payload: payload}) })
		var last sim.Time
		s.Spawn("recv", func(p *sim.Proc) {
			nw.Recv(p, 2)
			nw.Recv(p, 2)
			last = p.Now()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	ser, par := run(true), run(false)
	if ser <= par {
		t.Errorf("serialized bus (%v) should be slower than free bus (%v)", ser, par)
	}
}

func TestSendChargesSenderCPU(t *testing.T) {
	s := sim.New()
	nw := New(s, testModel(), 2)
	var user sim.Time
	var proc *sim.Proc
	proc = s.Spawn("sender", func(p *sim.Proc) {
		nw.Send(p, 0, 1, wire.UpdateAck{Count: 1})
		user = p.UserTime()
	})
	s.Spawn("receiver", func(p *sim.Proc) { nw.Recv(p, 1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	_ = proc
	if user != 100*sim.Microsecond {
		t.Errorf("sender charged %v, want 100µs", user)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := sim.New()
	nw := New(s, testModel(), 4)
	s.Spawn("sender", func(p *sim.Proc) {
		nw.Send(p, 0, 1, wire.UpdateAck{Count: 1})
		nw.Send(p, 0, 2, wire.UpdateAck{Count: 2})
		for dst := 1; dst < 4; dst++ {
			nw.Send(p, 0, dst, wire.CopysetQuery{From: 0})
		}
	})
	for i := 1; i < 4; i++ {
		i := i
		s.Spawn("recv", func(p *sim.Proc) {
			nw.Recv(p, i)
			if i <= 2 {
				nw.Recv(p, i)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Messages[wire.KindUpdateAck] != 2 {
		t.Errorf("update-ack count = %d, want 2", st.Messages[wire.KindUpdateAck])
	}
	if st.Messages[wire.KindCopysetQuery] != 3 {
		t.Errorf("copyset-query count = %d, want 3 (one per peer)", st.Messages[wire.KindCopysetQuery])
	}
	if st.TotalMessages() != 5 {
		t.Errorf("total = %d, want 5", st.TotalMessages())
	}
	if st.TotalBytes() <= 5*HeaderBytes {
		t.Errorf("total bytes = %d, implausibly small", st.TotalBytes())
	}
}

// countMessage is the message-side reference for CountFrame: what one
// send of msg adds to the statistics, read off the message value.
func countMessage(s *Stats, msg wire.Message) {
	size := wire.Size(msg) + HeaderBytes
	s.Sends++
	b, ok := msg.(wire.Batch)
	if !ok {
		s.Messages[msg.Kind()]++
		s.Bytes[msg.Kind()] += size
		return
	}
	s.BatchEnvelopes++
	s.BatchedMessages += len(b.Msgs)
	inner := 0
	for _, sub := range b.Msgs {
		n := wire.Size(sub)
		s.Messages[sub.Kind()]++
		s.Bytes[sub.Kind()] += n
		inner += n
	}
	s.Bytes[wire.KindBatch] += size - inner
}

// TestCountFrameMatchesMessages: the statistics every transport counts
// from the bytes it sends equal the statistics of the messages those
// bytes encode — per kind, and for batch envelopes and their riders.
func TestCountFrameMatchesMessages(t *testing.T) {
	diff := []byte{1, 0, 0, 0, 1, 0, 0, 0, 42, 0, 0, 0}
	riders := []wire.Message{
		wire.UpdateBatch{From: 2, Entries: []wire.UpdateEntry{{Addr: 0x80005000, Size: 8192, Diff: diff}}},
		wire.LockGrant{Lock: 1, Updates: []wire.UpdateEntry{{Addr: 0x80009000, Size: 4, Full: []byte{1, 2, 3, 4}}}},
		wire.LockAcq{Lock: 3, Requester: 1},
		wire.BarrierArrive{Barrier: 2, From: 5},
		wire.BarrierRelease{Barrier: 2, Tree: true, Subtree: []uint8{3, 4}},
		wire.CopysetQuery{From: 1, Addrs: []vm.Addr{0x80001000, 0x80002000}},
		wire.ReadReply{Addr: 0x80001000, Owner: 2, Data: make([]byte, 8192)},
		wire.LrcGC{Floors: []uint32{1, 2}},
	}
	msgs := append([]wire.Message(nil), riders...)
	msgs = append(msgs,
		wire.Batch{Msgs: riders},
		wire.Batch{Msgs: riders[:2]},
		wire.Batch{Msgs: []wire.Message{riders[2], riders[2], riders[3]}},
	)
	var got, want Stats
	for _, m := range msgs {
		countMessage(&want, m)
		bp := wire.Encode(m)
		got.CountFrame(*bp)
		wire.PutBuf(bp)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counted from frames:\n %+v\nfrom messages:\n %+v", got, want)
	}
}

func TestSelfSendPanics(t *testing.T) {
	s := sim.New()
	nw := New(s, testModel(), 2)
	s.Spawn("sender", func(p *sim.Proc) {
		nw.Send(p, 0, 0, wire.UpdateAck{})
	})
	if err := s.Run(); err == nil {
		t.Error("self-send did not error")
	}
}

func TestInvalidDestinationPanics(t *testing.T) {
	s := sim.New()
	nw := New(s, testModel(), 2)
	s.Spawn("sender", func(p *sim.Proc) {
		nw.Send(p, 0, 5, wire.UpdateAck{})
	})
	if err := s.Run(); err == nil {
		t.Error("invalid destination did not error")
	}
}

func TestTraceObservesDeliveries(t *testing.T) {
	s := sim.New()
	nw := New(s, testModel(), 2)
	var traced []Envelope
	nw.Trace = func(e Envelope) { traced = append(traced, e) }
	s.Spawn("sender", func(p *sim.Proc) {
		nw.Send(p, 0, 1, wire.UpdateAck{Count: 9})
	})
	s.Spawn("receiver", func(p *sim.Proc) { nw.Recv(p, 1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(traced) != 1 || traced[0].Msg.(wire.UpdateAck).Count != 9 {
		t.Errorf("traced = %+v", traced)
	}
}

func TestPending(t *testing.T) {
	s := sim.New()
	nw := New(s, testModel(), 2)
	s.Spawn("sender", func(p *sim.Proc) {
		nw.Send(p, 0, 1, wire.UpdateAck{Count: 1})
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		if nw.Pending(1) != 0 {
			t.Errorf("Pending before delivery = %d, want 0", nw.Pending(1))
		}
		p.Advance(10 * sim.Millisecond)
		if nw.Pending(1) != 1 {
			t.Errorf("Pending = %d, want 1", nw.Pending(1))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOBetweenPair(t *testing.T) {
	s := sim.New()
	nw := New(s, testModel(), 2)
	s.Spawn("sender", func(p *sim.Proc) {
		for i := uint32(0); i < 5; i++ {
			nw.Send(p, 0, 1, wire.UpdateAck{Count: i})
		}
	})
	var got []uint32
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, nw.Recv(p, 1).Msg.(wire.UpdateAck).Count)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("got = %v, want in-order", got)
		}
	}
}
