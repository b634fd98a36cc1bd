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

// Envelope is a message in flight or delivered. On its way and in an
// inbox it carries only the encoded frame, in a pooled buffer it owns
// (Buf); the receiver decodes what it needs. Recv decodes Msg for callers
// that want a message value.
type Envelope struct {
	Src, Dst int
	// Msg is the decoded message: nil on an envelope RecvFrame returns,
	// an owned copy on one a trace observer is shown, and on one Recv
	// returns a view into Buf, which must not be used after Release —
	// whatever the consumer keeps past it is re-owned first (wire.Own /
	// wire.OwnEntry).
	Msg         wire.Message
	Bytes       int // payload + HeaderBytes
	SentAt      sim.Time
	DeliveredAt sim.Time

	// Buf is the pooled buffer holding the encoded frame. The envelope
	// owns it: the consumer calls Release exactly once when it is done
	// with the frame and anything decoded from it.
	Buf *[]byte
}

// Frame returns the encoded message the envelope carries (nil once
// released).
func (e *Envelope) Frame() []byte {
	if e.Buf == nil {
		return nil
	}
	return *e.Buf
}

// Release returns the envelope's frame buffer to the pool. Safe (and a
// no-op) on an envelope that holds none; must not be called twice.
func (e *Envelope) Release() {
	if e.Buf != nil {
		wire.PutBuf(e.Buf)
		e.Buf = nil
	}
}

// Decoded returns env with Msg view-decoded from its frame: the decode
// half of every transport's Recv. The message borrows from the frame, so
// it lives until env is released. A frame that does not decode was sent
// by a broken encoder, and panics.
func Decoded(env Envelope) Envelope {
	msg, err := wire.UnmarshalView(env.Frame())
	if err != nil {
		panic(fmt.Sprintf("network: %v frame from node %d does not decode: %v", wire.FrameKind(env.Frame()), env.Src, err))
	}
	env.Msg = msg
	return env
}

// Traced returns what a trace observer is shown of env: an owned decoded
// copy of its message and no buffer, so the observer may keep the
// message and the receiver keeps the frame. Transports call it only when
// an observer is installed.
func Traced(env Envelope) Envelope {
	msg, err := wire.Unmarshal(env.Frame())
	if err != nil {
		panic(fmt.Sprintf("network: %v frame from node %d does not decode: %v", wire.FrameKind(env.Frame()), env.Src, err))
	}
	env.Msg, env.Buf = msg, nil
	return env
}

// Stats aggregates traffic counts. Messages and Bytes attribute traffic
// to protocol message kinds: a batch envelope's riders are counted
// individually under their own kinds (so per-kind tables mean the same
// thing batched or not), while the envelope's framing and wire header
// are attributed to wire.KindBatch bytes. Sends counts transport sends —
// the number the batching fast path exists to reduce.
type Stats struct {
	// Messages and Bytes are indexed by wire.Kind.
	Messages [wire.NumKinds]int
	Bytes    [wire.NumKinds]int
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
	_ = wire.ForEachRider(frame, func(rider []byte) {
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

	// slabs holds every delivery record made, deliverySlab to a block,
	// and free those not on the wire: a frame in flight is scheduled as
	// its record's fire.
	slabs [][]delivery
	free  []*delivery

	// Trace, if set, observes every delivered envelope (Traced).
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
// the frame itself into dst's inbox: nothing is decoded on the way, and
// the receiver decodes from the sender's buffer, which its envelope then
// owns. A frame cut by fault injection, or left on the wire or in an
// inbox when the run ends (Close), goes back to the pool.
func (nw *Network) SendFrame(p *sim.Proc, src, dst int, bp *[]byte) {
	handed := false
	defer func() {
		if !handed { // cut, or unwound by the end of the run
			wire.PutBuf(bp)
		}
	}()
	frame := *bp
	if dst < 0 || dst >= len(nw.inboxes) {
		panic(fmt.Sprintf("network: send to invalid node %d", dst))
	}
	if src == dst {
		panic(fmt.Sprintf("network: node %d sending %v to itself", src, wire.FrameKind(frame)))
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

	d := nw.delivery()
	d.env = Envelope{Src: src, Dst: dst, Bytes: size, SentAt: now, DeliveredAt: deliver, Buf: bp}
	handed = true
	nw.sim.At(deliver, d.fire)
}

// delivery is one frame on the modeled wire, scheduled at its delivery
// time. fire is its run method bound once, when the record is made, so
// scheduling a delivery allocates nothing: records are reused from the
// network's free list.
type delivery struct {
	nw   *Network
	env  Envelope
	fire func()
}

// deliverySlab is how many delivery records are made at a time.
const deliverySlab = 32

// delivery returns a free delivery record, making a slab of them when
// none is.
func (nw *Network) delivery() *delivery {
	if len(nw.free) == 0 {
		slab := make([]delivery, deliverySlab)
		nw.slabs = append(nw.slabs, slab)
		for i := range slab {
			d := &slab[i]
			d.nw, d.fire = nw, d.run
			nw.free = append(nw.free, d)
		}
	}
	k := len(nw.free) - 1
	d := nw.free[k]
	nw.free = nw.free[:k]
	return d
}

// run puts the record's frame into its destination inbox and frees the
// record.
func (d *delivery) run() {
	nw, env := d.nw, d.env
	d.env = Envelope{}
	nw.free = append(nw.free, d)
	nw.stats.Delivered++
	if nw.Trace != nil {
		nw.Trace(Traced(env))
	}
	nw.inboxes[env.Dst].Put(env)
}

// Close gives back the frames a finished run left behind: those still on
// the wire and those queued in inboxes. Call it once the simulation has
// stopped; the network delivers nothing afterwards.
func (nw *Network) Close() {
	for _, slab := range nw.slabs {
		for i := range slab {
			slab[i].env.Release()
		}
	}
	for _, in := range nw.inboxes {
		in.Drain(func(env Envelope) { env.Release() })
	}
}

// RecvFrame blocks p until a frame arrives for node and charges the
// receive-path CPU. The envelope carries the frame and owns its buffer;
// the caller releases it.
func (nw *Network) RecvFrame(p *sim.Proc, node int) Envelope {
	env := nw.inboxes[node].Get(p)
	received := false
	defer func() {
		if !received { // the run ended during the charge
			env.Release()
		}
	}()
	p.Advance(nw.cost.MsgRecvCPU)
	received = true
	return env
}

// Recv is RecvFrame plus decode (Decoded): the envelope's message borrows
// from its frame until the caller releases it.
func (nw *Network) Recv(p *sim.Proc, node int) Envelope {
	return Decoded(nw.RecvFrame(p, node))
}

// Pending reports the number of undelivered messages queued for node.
func (nw *Network) Pending(node int) int { return nw.inboxes[node].Len() }
