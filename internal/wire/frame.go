package wire

import "encoding/binary"

// A frame is one message's encoding in a pooled buffer: what a transport
// send carries. The runtime encodes a message where it sends it (Encode),
// so no message value outlives its send; an outbox joins the frames it
// queued for one node into one batch frame (JoinBatch). The transports
// then read what they need — the kind, the rider count, each rider's kind
// and size — straight off the bytes.

// Encode returns msg's encoding in a pooled buffer sized by Size. The
// caller owns the buffer and hands it on (a transport's SendFrame) or
// returns it with PutBuf.
func Encode(msg Message) *[]byte {
	bp := GetBufN(Size(msg))
	*bp = AppendTo(*bp, msg)
	return bp
}

// JoinBatch joins already-encoded messages into one batch frame, riders
// in the order given, and returns every rider buffer to the pool. The
// result is byte for byte Marshal(Batch{Msgs: ...}) of the decoded
// riders. A rider that is itself a batch is a bug and panics, as it does
// in AppendTo.
func JoinBatch(riders []*[]byte) *[]byte {
	n := 1 + 4
	for _, r := range riders {
		n += 4 + len(*r)
	}
	bp := GetBufN(n)
	b := append(*bp, uint8(KindBatch))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(riders)))
	for _, r := range riders {
		if FrameKind(*r) == KindBatch {
			panic("wire: batch inside a batch")
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(*r)))
		b = append(b, *r...)
		PutBuf(r)
	}
	*bp = b
	return bp
}

// FrameKind returns the kind of the message encoded in frame (KindInvalid
// for an empty frame).
func FrameKind(frame []byte) Kind {
	if len(frame) == 0 {
		return KindInvalid
	}
	return Kind(frame[0])
}

// FrameRiders returns the number of protocol messages frame carries: the
// rider count of a batch frame, 1 for anything else. The cost models
// charge the send path per frame plus a reduced per-rider increment
// (model.CostModel.SendCPU).
func FrameRiders(frame []byte) int {
	if FrameKind(frame) != KindBatch || len(frame) < 5 {
		return 1
	}
	return int(binary.LittleEndian.Uint32(frame[1:]))
}

// ForEachRider calls fn with the encoding of each rider of a batch frame,
// in order. It stops at the first rider the frame does not hold whole; a
// frame this package encoded always does.
func ForEachRider(frame []byte, fn func(rider []byte)) {
	if FrameKind(frame) != KindBatch || len(frame) < 5 {
		return
	}
	rest := frame[5:]
	for range FrameRiders(frame) {
		if len(rest) < 4 {
			return
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n > len(rest)-4 {
			return
		}
		fn(rest[4 : 4+n])
		rest = rest[4+n:]
	}
}
