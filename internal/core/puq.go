package core

// The pending update queue (PUQ) — §6's future-work item: "a pending
// updates queue to hold incoming updates, a dual to the delayed update
// queue already in use". With Config.PendingUpdates set, a node receiving
// an UpdateBatch queues the entries instead of merging them immediately;
// they are applied lazily — when a local thread passes its next
// synchronization point (acquire semantics require the updates to be
// visible then), or earlier if the object is touched (a fault, a flush, a
// remote request served from the local copy).
//
// Two effects follow. First, the decode/merge work moves off the
// dispatcher's critical path onto the consuming thread at its own
// synchronization points. Second, multiple full-object updates of the
// same object coalesce: only the newest is applied (a diff sequence still
// applies in order — each diff's words matter). Reduction objects, whose
// fixed owner broadcasts a full image on every Fetch-and-Φ, benefit the
// most.

import (
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// pendingUpdates buffers incoming updates per object, preserving arrival
// order across objects for deterministic drains.
type pendingUpdates struct {
	entries map[vm.Addr][]wire.UpdateEntry
	order   []vm.Addr
}

func newPendingUpdates() *pendingUpdates {
	return &pendingUpdates{entries: make(map[vm.Addr][]wire.UpdateEntry)}
}

// queue adds one update, coalescing against what is already pending:
// a full image supersedes everything queued for the object.
func (q *pendingUpdates) queue(u wire.UpdateEntry) (coalesced int) {
	pending, known := q.entries[u.Addr]
	if !known || len(pending) == 0 {
		if !known {
			q.order = append(q.order, u.Addr)
		}
		q.entries[u.Addr] = append(pending, u)
		return 0
	}
	if u.Full != nil {
		coalesced = len(pending)
		q.entries[u.Addr] = append(pending[:0], u)
		return coalesced
	}
	q.entries[u.Addr] = append(pending, u)
	return 0
}

// take removes and returns the pending updates for one object.
func (q *pendingUpdates) take(addr vm.Addr) []wire.UpdateEntry {
	pending := q.entries[addr]
	if len(pending) == 0 {
		return nil
	}
	q.entries[addr] = nil
	return pending
}

// drop discards the pending updates for one object (an invalidation or
// unmap supersedes them).
func (q *pendingUpdates) drop(addr vm.Addr) {
	q.entries[addr] = nil
}

// addrs returns the objects with pending updates, in arrival order, and
// compacts the order list.
func (q *pendingUpdates) addrs() []vm.Addr {
	var out []vm.Addr
	kept := q.order[:0]
	for _, a := range q.order {
		if len(q.entries[a]) > 0 {
			out = append(out, a)
			kept = append(kept, a)
		} else {
			delete(q.entries, a)
		}
	}
	q.order = kept
	return out
}

// queuePendingUpdate buffers one incoming update at this node. The
// entry's payload is a view into the received frame, which dies when the
// dispatch returns; queuing retains it, so it is re-owned first.
func (n *Node) queuePendingUpdate(u wire.UpdateEntry) {
	u = wire.OwnEntry(u)
	n.PendingQueued++
	n.PendingCoalesced += n.puq.queue(u)
}

// drainPendingObject applies the pending updates for one object. p may be
// nil for post-run inspection (no virtual time to charge).
func (n *Node) drainPendingObject(p rt.Proc, addr vm.Addr) {
	if n.puq == nil {
		return
	}
	// Draining must be atomic against the node's other threads: take()
	// removes entries before they are applied and applyUpdate yields, so
	// without mutual exclusion a concurrent drainer would observe an
	// empty queue while the data is neither queued nor yet applied —
	// crucially, even the emptiness check must wait for an in-progress
	// drain. p is nil only post-run, when nothing runs concurrently.
	if p != nil {
		n.acquire(p, n.puqSem)
		defer n.puqSem.Release()
	}
	n.drainObjectLocked(p, addr)
}

// drainPendingAll applies every pending update — the acquire-side
// synchronization drain.
func (n *Node) drainPendingAll(p rt.Proc) {
	if n.puq == nil {
		return
	}
	if p != nil {
		n.acquire(p, n.puqSem)
		defer n.puqSem.Release()
	}
	for _, addr := range n.puq.addrs() {
		n.drainObjectLocked(p, addr)
	}
}

// drainObjectLocked applies one object's pending updates; the caller
// holds puqSem (or runs post-run).
func (n *Node) drainObjectLocked(p rt.Proc, addr vm.Addr) {
	e, ok := n.dir.Lookup(addr)
	if !ok {
		fail(n.id, addr, "pending update", "queued update for an object this node has never seen")
	}
	for _, u := range n.puq.take(e.Start) {
		n.applyUpdate(p, e, u, -1)
	}
}
