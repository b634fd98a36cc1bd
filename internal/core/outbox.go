package core

// The outbox: the one way protocol code sends. §3.3's release is one
// sentence — "the update mechanism automatically combines the elements
// destined for the same node into a single message" — and the runtime
// has one idiom to match: n.send(p, dst, msg). With Config.Batching off
// that is the transport send itself, bit for bit the unbatched
// prototype. With it on, every proc owns an outbox that queues what the
// proc sends per destination and emits each destination's queue as a
// single wire.Batch envelope (the bare message when only one queued):
// one transport send, one wire header, one send-path CPU charge plus the
// reduced per-rider increment (model.CostModel.SendCPU), the receiving
// dispatcher unpacking the riders in order.
//
// Three rules make that safe, and they are the whole contract:
//
//  1. One send idiom. Nothing reaches the transport except through the
//     sender's outbox, so per-destination order is exactly send order —
//     no message can overtake an earlier one to the same node.
//
//  2. Flush where an operation ends or stops. The outbox empties at
//     operation end — Thread.endSystem, deferred by every user-thread
//     runtime entry and the fault handler; the dispatcher loop after
//     each dispatched envelope, so it reaches Recv empty — and before
//     the proc parks: n.await, n.acquire when it would block, proc
//     exit. A proc therefore never parks, and never exits, with a
//     non-empty outbox: a message a remote node needs in order to make
//     progress cannot sit buffered across a wait. The check-then-flush
//     is atomic because a proc holds its node monitor between block
//     points (a future that is Done stays Done; a semaphore that turns
//     free between Busy() and Acquire costs only an early flush). One
//     more flush sits in n.wake: before an operation wakes another proc
//     of the same node (a local lock hand-off, local barrier or
//     annotation waiters), because what the woken proc then says must
//     not overtake what this one already said.
//
//  3. Acknowledged flushes wherever batching meets a live transport.
//     An envelope leaves at the position of its FIRST rider, so order
//     ACROSS destinations is not send order: a barrier arrival riding
//     the envelope that carries the home's update leaves before the
//     updates to the nodes after it, and the home can release a node
//     whose update is still unsent. The simulator's cost model hides
//     that (a release is several message times behind the flush that
//     precedes it); chan's sender-order delivery does not, so core
//     turns AwaitUpdateAcks on there exactly as it does for mux
//     (needsUpdateAcks, applied in NewSystem) — a selection from
//     (transport, batching), not a knob.

import (
	"munin/internal/obs"
	"munin/internal/rt"
	"munin/internal/wire"
)

// outbox queues one proc's outgoing messages per destination, each
// already encoded: a frame (wire.Encode) that no message value outlives.
// Only its proc touches it, under the node monitor, so it needs no
// locking.
type outbox struct {
	dsts []int // first-enqueue order; also emission order
	// q holds each destination's queued frames. A flushed destination
	// keeps its (emptied) list, so steady-state queueing allocates
	// nothing; an empty list means the destination is not in dsts.
	q map[int][]*[]byte
}

// needsUpdateAcks reports whether releases must block for update
// acknowledgements on the named transport: always on mux (per-pair FIFO
// only), and wherever an outbox reorders across destinations on a
// transport that would otherwise deliver in sender order (rule 3).
func needsUpdateAcks(transport string, batching bool) bool {
	return transport == "mux" || (batching && transport != "sim")
}

// send transmits msg from this node to dst: directly with batching off,
// through p's outbox otherwise. Either way msg is encoded here, so
// nothing holds it once send returns.
func (n *Node) send(p rt.Proc, dst int, msg wire.Message) {
	bp := wire.Encode(msg)
	if n.outboxes == nil {
		n.sys.tr.SendFrame(p, n.id, dst, bp)
		return
	}
	o := n.outboxOf(p)
	if len(o.q[dst]) == 0 {
		o.dsts = append(o.dsts, dst)
	}
	o.q[dst] = append(o.q[dst], bp)
}

// outboxOf returns p's outbox, making it on first use.
func (n *Node) outboxOf(p rt.Proc) *outbox {
	o := n.outboxes[p]
	if o == nil {
		o = &outbox{q: make(map[int][]*[]byte, 4)}
		n.outboxes[p] = o
	}
	return o
}

// sent gives back a payload buffer — a diff or a served page built in a
// wire.GetBufN buffer only to be sent — once every message that carries
// it has gone through n.send, which encoded (copied) it already. A nil bp
// is ignored.
func (n *Node) sent(bp *[]byte) {
	if bp != nil {
		wire.PutBuf(bp)
	}
}

// broadcast sends msg to every other node.
func (n *Node) broadcast(p rt.Proc, msg wire.Message) {
	for dst := 0; dst < n.sys.Nodes(); dst++ {
		if dst != n.id {
			n.send(p, dst, msg)
		}
	}
}

// flush empties p's outbox onto the transport, one frame per destination
// in first-enqueue order: the lone frame queued for it, or the batch
// frame joining them (wire.JoinBatch).
func (n *Node) flush(p rt.Proc) {
	if n.outboxes == nil {
		return
	}
	o := n.outboxes[p]
	if o == nil {
		return
	}
	for _, dst := range o.dsts {
		frames := o.q[dst]
		// Off the queue before the send yields: a proc unwinding there
		// must not give these buffers back a second time (putPayloads).
		o.q[dst] = frames[:0]
		bp := frames[0]
		if len(frames) > 1 {
			if n.obs != nil {
				n.obs.Event(obs.EvBatchFlush, int64(p.Now()), 0, 0, dst, int64(len(frames)))
			}
			bp = wire.JoinBatch(frames)
		}
		clear(frames)
		n.sys.tr.SendFrame(p, n.id, dst, bp)
	}
	o.dsts = o.dsts[:0]
}

// putPayloads gives back the frames p's outbox still queues, sending
// nothing: what a dispatcher unwinding from a stopped machine does.
func (n *Node) putPayloads(p rt.Proc) {
	o := n.outboxes[p]
	if o == nil {
		return
	}
	for dst, frames := range o.q {
		for _, bp := range frames {
			wire.PutBuf(bp)
		}
		clear(frames)
		o.q[dst] = frames[:0]
	}
	o.dsts = o.dsts[:0]
}

// wake completes futures that other procs of this node are parked on.
// What this proc has queued leaves first (rule 2): whatever a woken proc
// says next must not overtake it.
func (n *Node) wake(p rt.Proc, ws ...rt.Future) {
	if len(ws) == 0 {
		return
	}
	n.flush(p)
	for _, f := range ws {
		f.Complete(nil)
	}
}

// await waits on f, flushing first if the wait would park.
func (n *Node) await(p rt.Proc, f rt.Future) any {
	if n.outboxes != nil && !f.Done() {
		n.flush(p)
	}
	return f.Wait(p)
}

// acquire takes s, flushing first if the acquire would park.
func (n *Node) acquire(p rt.Proc, s rt.Semaphore) {
	if n.outboxes != nil && s.Busy() {
		n.flush(p)
	}
	s.Acquire(p)
}
