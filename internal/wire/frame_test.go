package wire

import (
	"bytes"
	"testing"
)

// batchSamples returns sampleMessages plus batch envelopes of its
// non-batch messages: all of them in one, every pair, and each alone.
func batchSamples() []Message {
	msgs := sampleMessages()
	var riders []Message
	for _, m := range msgs {
		if _, ok := m.(Batch); !ok {
			riders = append(riders, m)
		}
	}
	out := append(msgs, Batch{Msgs: riders})
	for i := range riders {
		out = append(out, Batch{Msgs: []Message{riders[i]}})
		if i+1 < len(riders) {
			out = append(out, Batch{Msgs: []Message{riders[i], riders[i+1]}})
		}
	}
	return out
}

type foreignMessage struct{}

func (foreignMessage) Kind() Kind { return KindReadReq }

func TestKindOfMatchesKind(t *testing.T) {
	for _, m := range sampleMessages() {
		if got := KindOf(m); got != m.Kind() {
			t.Errorf("KindOf(%v) = %v", m.Kind(), got)
		}
	}
	if got := KindOf(foreignMessage{}); got != KindInvalid {
		t.Errorf("KindOf of a type wire does not define = %v, want %v", got, KindInvalid)
	}
}

// TestFrameReaders holds the frame readers to the message the frame
// encodes: its kind, its rider count (the batch's message count, 1 for
// anything else) and, for a batch, each rider's encoding in order.
func TestFrameReaders(t *testing.T) {
	for _, m := range batchSamples() {
		bp := Encode(m)
		frame := *bp
		if !bytes.Equal(frame, Marshal(m)) {
			t.Errorf("%v: Encode differs from Marshal", m.Kind())
		}
		if got := FrameKind(frame); got != m.Kind() {
			t.Errorf("%v: FrameKind = %v", m.Kind(), got)
		}
		var want [][]byte
		if b, ok := m.(Batch); ok {
			for _, sub := range b.Msgs {
				want = append(want, Marshal(sub))
			}
		}
		riders := 1
		if want != nil {
			riders = len(want)
		}
		if got := FrameRiders(frame); got != riders {
			t.Errorf("%v: FrameRiders = %d, want %d", m.Kind(), got, riders)
		}
		var got [][]byte
		ForEachRider(frame, func(r []byte) { got = append(got, r) })
		if len(got) != len(want) {
			t.Errorf("%v: ForEachRider visited %d riders, want %d", m.Kind(), len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%v: rider %d differs from its Marshal", m.Kind(), i)
			}
		}
		PutBuf(bp)
	}
	if FrameKind(nil) != KindInvalid || FrameRiders(nil) != 1 {
		t.Error("an empty frame must read as one rider of KindInvalid")
	}
	// A truncated batch frame stops the walk; it never reads past the end.
	frame := Marshal(Batch{Msgs: []Message{UpdateAck{Count: 1}, UpdateAck{Count: 2}}})
	n := 0
	ForEachRider(frame[:len(frame)-1], func([]byte) { n++ })
	if n != 1 {
		t.Errorf("a batch frame cut inside its second rider yielded %d riders, want 1", n)
	}
}

// TestJoinBatchMatchesMarshal: joining encoded riders gives the bytes of
// the batch envelope marshalled whole, and gives every rider buffer back.
func TestJoinBatchMatchesMarshal(t *testing.T) {
	for _, m := range batchSamples() {
		b, ok := m.(Batch)
		if !ok {
			continue
		}
		before := Outstanding()
		riders := make([]*[]byte, len(b.Msgs))
		for i, sub := range b.Msgs {
			riders[i] = Encode(sub)
		}
		bp := JoinBatch(riders)
		if !bytes.Equal(*bp, Marshal(b)) {
			t.Errorf("a batch of %d joined is not Marshal(Batch{...})", len(b.Msgs))
		}
		PutBuf(bp)
		if d := Outstanding() - before; d != 0 {
			t.Errorf("a batch of %d left %d buffers borrowed", len(b.Msgs), d)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("JoinBatch accepted a batch rider")
		}
	}()
	JoinBatch([]*[]byte{Encode(Batch{Msgs: []Message{UpdateAck{Count: 1}}})})
}
