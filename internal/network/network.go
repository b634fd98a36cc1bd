// Package network simulates the dedicated 10 Mbps Ethernet connecting the
// prototype's sixteen workstations.
//
// Each message pays sender CPU (the V-kernel send path), waits for the
// shared bus if it is busy, occupies the wire for size·PerByte, and is
// delivered into the destination node's inbox after the wire latency. The
// receiver pays its CPU cost when it picks the message up with Recv. The
// network keeps per-kind message and byte counts — the paper's analysis
// argues in exactly these terms (number of messages, data motion).
package network

import (
	"fmt"

	"munin/internal/model"
	"munin/internal/sim"
	"munin/internal/wire"
)

// HeaderBytes is the per-message framing overhead added to every payload
// (Ethernet framing plus V-kernel style message header).
const HeaderBytes = 34

// Envelope is a message in flight or delivered.
type Envelope struct {
	Src, Dst    int
	Msg         wire.Message
	Bytes       int // payload + HeaderBytes
	SentAt      sim.Time
	DeliveredAt sim.Time

	// Borrowed marks a zero-copy delivery: Msg was decoded with
	// wire.UnmarshalView and its byte payloads alias the pooled receive
	// buffer Buf. The consumer must call Release exactly once after it
	// is done with Msg, and must re-own (wire.Own / wire.OwnEntry)
	// anything it retains past that point.
	Borrowed bool
	// Buf is the pooled receive buffer backing a borrowed Msg (nil on
	// copying transports). A field rather than a closure so synthetic
	// batch-rider envelopes stay allocation-free.
	Buf *[]byte
}

// Release returns a borrowed envelope's receive buffer to the pool.
// Safe (and a no-op) on envelopes that borrow nothing; must not be
// called twice.
func (e *Envelope) Release() {
	if e.Buf != nil {
		wire.PutBuf(e.Buf)
		e.Buf = nil
		e.Borrowed = false
	}
}

// Stats aggregates traffic counts. Messages and Bytes attribute traffic
// to protocol message kinds: a batch envelope's riders are counted
// individually under their own kinds (so per-kind tables mean the same
// thing batched or not), while the envelope's framing and wire header
// are attributed to wire.KindBatch bytes. Sends counts transport sends —
// the number the batching fast path exists to reduce.
type Stats struct {
	Messages map[wire.Kind]int
	Bytes    map[wire.Kind]int
	// Sends counts transport sends (envelopes): an unbatched message is
	// one send; a wire.Batch of k messages is one send carrying k.
	Sends int
	// BatchEnvelopes counts the wire.Batch envelopes among Sends, and
	// BatchedMessages the protocol messages that rode inside them.
	BatchEnvelopes  int
	BatchedMessages int
	// Delivered counts envelopes delivered into destination inboxes.
	// After a quiescent run without fault injection Delivered == Sends:
	// the transport conserves messages (the counter conservation tests
	// assert exactly this per engine × transport).
	Delivered int
}

// CountFrame records one transport send of frame, an encoded message
// that travels with HeaderBytes of framing. For a batch frame every rider
// is counted under its own kind with its own encoded size, and the
// envelope overhead (batch framing plus the one shared header) lands
// under wire.KindBatch. Every transport counts its sends here.
func (s *Stats) CountFrame(frame []byte) {
	s.Sends++
	size := len(frame) + HeaderBytes
	kind := wire.FrameKind(frame)
	if kind != wire.KindBatch {
		s.Messages[kind]++
		s.Bytes[kind] += size
		return
	}
	s.BatchEnvelopes++
	inner := 0
	wire.ForEachRider(frame, func(rider []byte) {
		k := wire.FrameKind(rider)
		s.BatchedMessages++
		s.Messages[k]++
		s.Bytes[k] += len(rider)
		inner += len(rider)
	})
	s.Bytes[wire.KindBatch] += size - inner
}

// TotalMessages returns the total protocol message count (batch riders
// counted individually; envelopes not double-counted).
func (s *Stats) TotalMessages() int {
	n := 0
	for _, v := range s.Messages {
		n += v
	}
	return n
}

// TotalBytes returns the total byte count (including headers and batch
// framing).
func (s *Stats) TotalBytes() int {
	n := 0
	for _, v := range s.Bytes {
		n += v
	}
	return n
}

// Network is the shared segment. It is created for a fixed node count.
type Network struct {
	sim     *sim.Sim
	cost    model.CostModel
	inboxes []*sim.Mailbox[Envelope]

	busFreeAt sim.Time
	stats     Stats

	// pairLast tracks the last delivery time per (src,dst) so fault
	//-injected reordering never violates per-pair FIFO order.
	pairLast map[[2]int]sim.Time

	// Trace, if set, observes every delivered envelope.
	Trace func(Envelope)

	// Faults, if set, injects drops, partitions and reordering.
	Faults *Faults
}

// MaxNodes is the largest machine any transport hosts — the wire
// format's 8-bit node ids are the structural ceiling. core.MaxProcessors
// re-exports it for configuration validation.
const MaxNodes = 256

// New creates a network of n nodes over the given simulation and cost
// model.
func New(s *sim.Sim, cost model.CostModel, n int) *Network {
	if n <= 0 || n > MaxNodes {
		panic(fmt.Sprintf("network: invalid node count %d", n))
	}
	nw := &Network{
		sim:      s,
		cost:     cost,
		pairLast: make(map[[2]int]sim.Time),
		stats: Stats{
			Messages: make(map[wire.Kind]int),
			Bytes:    make(map[wire.Kind]int),
		},
	}
	for i := 0; i < n; i++ {
		nw.inboxes = append(nw.inboxes, sim.NewMailbox[Envelope](s, fmt.Sprintf("inbox[%d]", i)))
	}
	return nw
}

// Nodes returns the number of nodes.
func (nw *Network) Nodes() int { return len(nw.inboxes) }

// Stats returns the accumulated traffic statistics.
func (nw *Network) Stats() *Stats { return &nw.stats }

// Send transmits msg from p's node to dst: it encodes msg and sends the
// frame (SendFrame).
func (nw *Network) Send(p *sim.Proc, src, dst int, msg wire.Message) {
	nw.SendFrame(p, src, dst, wire.Encode(msg))
}

// SendFrame transmits the encoded message in bp from p's node to dst and
// takes ownership of bp. It charges p the send-path CPU (against p's
// current time kind), models bus contention and wire time, and delivers
// into dst's inbox. The frame is decoded with wire.Unmarshal and the
// decoded copy is what arrives, so that codec and simulation can never
// drift apart.
func (nw *Network) SendFrame(p *sim.Proc, src, dst int, bp *[]byte) {
	defer wire.PutBuf(bp)
	frame := *bp
	if dst < 0 || dst >= len(nw.inboxes) {
		panic(fmt.Sprintf("network: send to invalid node %d", dst))
	}
	if src == dst {
		panic(fmt.Sprintf("network: node %d sending %v to itself", src, wire.FrameKind(frame)))
	}
	decoded, err := wire.Unmarshal(frame)
	if err != nil {
		panic(fmt.Sprintf("network: message %v does not round-trip: %v", wire.FrameKind(frame), err))
	}
	size := len(frame) + HeaderBytes

	p.Advance(nw.cost.SendCPU(wire.FrameRiders(frame)))
	if nw.Faults.Cut(src, dst, frame) {
		// Fault injection operates on whole envelopes: a dropped batch
		// loses every rider at once, exactly as a lost frame would.
		return
	}

	nw.stats.CountFrame(frame)

	now := nw.sim.Now()
	start := now
	if nw.cost.BusSerialized && nw.busFreeAt > start {
		start = nw.busFreeAt
	}
	wireDone := start + nw.cost.MsgTime(size)
	if nw.cost.BusSerialized {
		nw.busFreeAt = wireDone
	}
	deliver := wireDone + nw.cost.WireLatency
	if nw.Faults != nil && nw.Faults.ReorderSeed != 0 {
		// Fault-injected reordering: jitter the delivery so messages
		// from other senders can overtake, but never behind this pair's
		// previous delivery (per-pair FIFO always holds).
		if j := nw.Faults.Jitter(int64(nw.cost.WireLatency) * nw.Faults.span()); j > 0 {
			deliver += sim.Time(j)
			nw.Faults.CountReorder()
		}
		pair := [2]int{src, dst}
		if last := nw.pairLast[pair]; deliver < last {
			deliver = last
		}
		nw.pairLast[pair] = deliver
	}

	env := Envelope{Src: src, Dst: dst, Msg: decoded, Bytes: size, SentAt: now, DeliveredAt: deliver}
	nw.sim.At(deliver, func() {
		nw.stats.Delivered++
		if nw.Trace != nil {
			nw.Trace(env)
		}
		nw.inboxes[dst].Put(env)
	})
}

// Recv blocks p until a message arrives for node and charges the
// receive-path CPU.
func (nw *Network) Recv(p *sim.Proc, node int) Envelope {
	env := nw.inboxes[node].Get(p)
	p.Advance(nw.cost.MsgRecvCPU)
	return env
}

// Pending reports the number of undelivered messages queued for node.
func (nw *Network) Pending(node int) int { return nw.inboxes[node].Len() }
