package rt_test

import (
	"testing"

	"munin/internal/rt"
	"munin/internal/wire"
)

// batchMsg builds a 3-rider envelope with distinct kinds.
func batchMsg() wire.Batch {
	return wire.Batch{Msgs: []wire.Message{
		wire.UpdateBatch{From: 1, Entries: []wire.UpdateEntry{
			{Addr: 0x20000, Size: 8, Full: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		}},
		wire.LockGrant{Lock: 3},
		wire.BarrierRelease{Barrier: 9},
	}}
}

// TestBatchEnvelopeDelivery sends a batch through every transport and
// checks it arrives as ONE envelope with the riders intact and in order,
// and that the statistics count one send, one envelope, and the riders
// individually under their own kinds.
func TestBatchEnvelopeDelivery(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		sent := batchMsg()
		tr.Spawn(1, "sender", func(p rt.Proc) {
			tr.Send(p, 1, 0, sent)
		})
		var got wire.Batch
		tr.Spawn(0, "receiver", func(p rt.Proc) {
			env := tr.Recv(p, 0)
			b, ok := env.Msg.(wire.Batch)
			if !ok {
				t.Errorf("%s: delivered %T, want one wire.Batch envelope", tr.Name(), env.Msg)
			}
			got = b
			tr.Stop()
		})
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		if len(got.Msgs) != len(sent.Msgs) {
			t.Fatalf("%s: %d riders, want %d", tr.Name(), len(got.Msgs), len(sent.Msgs))
		}
		for i, sub := range got.Msgs {
			if sub.Kind() != sent.Msgs[i].Kind() {
				t.Errorf("%s: rider %d is %v, want %v (order must survive the envelope)",
					tr.Name(), i, sub.Kind(), sent.Msgs[i].Kind())
			}
		}
		st := tr.Stats()
		if st.Sends != 1 || st.BatchEnvelopes != 1 || st.BatchedMessages != 3 {
			t.Errorf("%s: sends/envelopes/riders = %d/%d/%d, want 1/1/3",
				tr.Name(), st.Sends, st.BatchEnvelopes, st.BatchedMessages)
		}
		if st.TotalMessages() != 3 {
			t.Errorf("%s: %d logical messages, want the 3 riders", tr.Name(), st.TotalMessages())
		}
		for _, k := range []wire.Kind{wire.KindUpdateBatch, wire.KindLockGrant, wire.KindBarrierRelease} {
			if st.Messages[k] != 1 {
				t.Errorf("%s: per-kind count for %v = %d, want 1", tr.Name(), k, st.Messages[k])
			}
		}
		// The envelope overhead (batch framing + the one shared wire
		// header) is attributed to the batch kind; total bytes must be
		// less than three separately framed sends would have cost.
		if st.Bytes[wire.KindBatch] == 0 {
			t.Errorf("%s: no envelope overhead attributed to the batch kind", tr.Name())
		}
		separate := 0
		for _, sub := range sent.Msgs {
			separate += wire.Size(sub) + 34 // network.HeaderBytes
		}
		if st.TotalBytes() >= separate {
			t.Errorf("%s: batched bytes %d, want fewer than %d separate-send bytes",
				tr.Name(), st.TotalBytes(), separate)
		}
	})
}

// TestBatchEnvelopeDrop checks fault injection sees (and discards) whole
// envelopes: the Drop predicate is consulted once with the Batch, and no
// rider leaks through a dropped envelope.
func TestBatchEnvelopeDrop(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, tr rt.Transport) {
		var consulted []wire.Kind
		faults := &rt.Faults{Drop: func(src, dst int, m wire.Message) bool {
			consulted = append(consulted, m.Kind())
			return m.Kind() == wire.KindBatch
		}}
		tr.SetFaults(faults)
		tr.Spawn(1, "sender", func(p rt.Proc) {
			tr.Send(p, 1, 0, batchMsg()) // dropped whole
			tr.Send(p, 1, 0, msg(1, 42)) // survives
		})
		var got []wire.Kind
		tr.Spawn(0, "receiver", func(p rt.Proc) {
			env := tr.Recv(p, 0)
			got = append(got, env.Msg.Kind())
			tr.Stop()
		})
		if err := tr.Run(); err != nil {
			t.Fatalf("%s: Run: %v", tr.Name(), err)
		}
		if len(got) != 1 || got[0] != wire.KindReduceReply {
			t.Fatalf("%s: delivered %v, want only the bare message", tr.Name(), got)
		}
		if len(consulted) != 2 || consulted[0] != wire.KindBatch {
			t.Errorf("%s: Drop consulted with %v, want the envelope then the bare message",
				tr.Name(), consulted)
		}
		if d := faults.Dropped(); d != 1 {
			t.Errorf("%s: Dropped = %d, want 1 (the whole envelope)", tr.Name(), d)
		}
	})
}
