package core

import (
	"fmt"

	"munin/internal/directory"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// acquireLock implements AcquireLock (§3.4) over a path-reversal queue
// (DESIGN.md "Locks"): take the lock at once if this node owns it and it
// is free, wait behind a local holder or an acquire already in flight,
// and otherwise ask the last requester this node knows of and become the
// queue's tail itself.
func (n *Node) acquireLock(t *Thread, id int) {
	p := t.proc
	p.Advance(n.sys.cost.LockHandlerCPU)
	se := n.mustSynch(id, directory.SynchLock)
	if se.Owned && !se.Held {
		se.Held = true
		n.locksHeld++
		n.drainPendingAll(p)
		return
	}
	if se.Owned || n.lockPend[id] {
		// Ownership is here but a local thread holds the lock, or a
		// remote acquire is already in flight: wait locally; the
		// releasing/acquiring thread hands over directly.
		f := n.sys.tr.NewFuture(n.id, n.lockWaitNames.name(n.id, id))
		n.lockWait[id] = append(n.lockWait[id], f)
		n.await(p, f)
		n.locksHeld++
		n.drainPendingAll(p)
		return
	}
	// The hint turns to this node before the request leaves: the send
	// yields, and a request arriving meanwhile must queue behind ours.
	n.lockPend[id] = true
	dst := se.ProbOwner
	se.ProbOwner = n.id
	if n.lrc != nil {
		// Lazy engine: the request carries our vector timestamp, the
		// grant brings back the write notices we lack (see lrc.go).
		n.lrcLockAcquire(t, id, se, dst)
		return
	}
	grant := n.rpc(t, dst, pendKey{pendLock, uint64(id)},
		wire.LockAcq{Lock: uint32(id), Requester: uint8(n.id)}).(wire.LockGrant)
	n.lockGranted(id, se)
	// Acquire semantics: queued incoming updates become visible now.
	n.drainPendingAll(p)
	n.applyGrantUpdates(t, grant.Updates)
}

// lockGranted takes ownership of a lock whose grant has arrived. The hint
// and Succ stay as they are: a request that reached this node while the
// grant was in flight already queued behind it.
func (n *Node) lockGranted(id int, se *directory.SynchEntry) {
	n.lockPend[id] = false
	se.Owned = true
	se.Held = true
	n.locksHeld++
}

// applyGrantUpdates applies the data piggybacked on a lock grant for
// objects associated with the lock (AssociateDataAndSynch): the
// consistency information travels in the message that passes lock
// ownership (§2.5).
func (n *Node) applyGrantUpdates(t *Thread, updates []wire.UpdateEntry) {
	p := t.proc
	for _, u := range updates {
		e := n.entry(t, u.Addr)
		n.applyUpdate(p, e, u, -1)
		if e.Annot == protocol.Migratory {
			e.Owned = true
			e.ProbOwner = n.id
			n.protectObject(p, e, vm.ProtReadWrite)
		}
	}
}

// releaseLock implements ReleaseLock: flush the DUQ (release consistency),
// then hand the lock to a local waiter or to the successor queued here.
func (n *Node) releaseLock(t *Thread, id int) {
	p := t.proc
	if n.lrc != nil {
		n.lrcRelease(t)
	} else {
		n.releaseFlush(t)
	}
	n.adaptAtRelease(t)
	p.Advance(n.sys.cost.LockHandlerCPU)
	se := n.mustSynch(id, directory.SynchLock)
	if !se.Held || !se.Owned {
		fail(n.id, 0, "release lock", fmt.Sprintf("lock %d is not held by this node", id))
	}
	n.locksHeld--
	if ws := n.lockWait[id]; len(ws) > 0 {
		// Hand directly to a local waiter; ownership and Held stay (and
		// under the lazy engine the waiter shares this node's timestamp
		// and notice state, so nothing needs to travel).
		n.lockWait[id] = ws[1:]
		n.wake(p, ws[0])
		return
	}
	se.Held = false
	if se.Succ >= 0 {
		succ := se.Succ
		se.Succ = -1
		se.Owned = false
		var succVT []uint32
		if n.lrc != nil {
			succVT = n.lrcSuccVT(id)
		}
		n.sendLockGrant(p, id, se, succ, succVT)
	}
}

// serveLockRequest handles a remote acquire (eager LockAcq or lazy
// LrcLockAcq, whose vector timestamp is reqVT) by path reversal: a node
// that is not the queue's tail passes the request on along its hint; the
// tail grants a free lock it owns or records the requester as its
// successor. Either way the hint then names the requester, the new tail.
func (n *Node) serveLockRequest(p rt.Proc, m wire.Message, id, req int, reqVT []uint32) {
	p.Advance(n.sys.cost.LockHandlerCPU)
	se := n.mustSynch(id, directory.SynchLock)
	if req == n.id {
		panic(&RuntimeError{Node: n.id, Op: "lock request", Err: ErrOwnLockRequest,
			Reason: fmt.Sprintf("lock %d: %v", id, ErrOwnLockRequest)})
	}
	// Every state change precedes the send, which yields.
	if dst := se.ProbOwner; dst != n.id {
		se.ProbOwner = req
		n.send(p, dst, m)
		return
	}
	se.ProbOwner = req
	if se.Owned && !se.Held && len(n.lockWait[id]) == 0 {
		se.Owned = false
		n.sendLockGrant(p, id, se, req, reqVT)
		return
	}
	if se.Succ >= 0 {
		fail(n.id, 0, "lock enqueue", fmt.Sprintf("lock %d successor already set (succ=%d, enqueuing %d)", id, se.Succ, req))
	}
	se.Succ = req
	if n.lrc != nil {
		n.lockSuccVT[id] = append([]uint32(nil), reqVT...)
	}
}

// lockPiggyback gathers current data for the objects associated with the
// lock so the grant message carries it (avoiding access misses at the new
// holder, §2.5). Migratory associated objects move with the lock: the
// local copy is handed off to the grantee, to.
func (n *Node) lockPiggyback(p rt.Proc, se *directory.SynchEntry, to int) []wire.UpdateEntry {
	var out []wire.UpdateEntry
	for _, addr := range se.Assoc {
		e, ok := n.dir.Lookup(addr)
		if !ok {
			continue
		}
		if n.lazy(e) || n.homeDirected(e) {
			// Lazily managed associates travel as write notices on the
			// grant itself; piggybacking a full image would bypass the
			// interval bookkeeping. A home-directed object's copies are
			// the ones its home handed out: a copy arriving on a grant
			// would be one no later writer's lookup names.
			continue
		}
		n.drainPendingObject(p, e.Start)
		data := n.currentData(e)
		if data == nil {
			continue
		}
		p.Advance(n.sys.cost.CopyCost(e.Size))
		out = append(out, wire.UpdateEntry{Addr: e.Start, Size: uint32(e.Size), Full: data})
		if e.Annot == protocol.Migratory {
			n.handOff(p, e, to)
		}
	}
	return out
}

// waitAtBarrier implements WaitAtBarrier: flush the DUQ, then report
// arrival to the barrier's owner node and block until released (§3.4).
func (n *Node) waitAtBarrier(t *Thread, id int) {
	p := t.proc
	if n.lrc != nil {
		n.lrcRelease(t)
	} else {
		n.releaseFlush(t)
	}
	n.adaptAtRelease(t)
	p.Advance(n.sys.cost.BarrierHandlerCPU)
	se := n.mustSynch(id, directory.SynchBarrier)
	f := n.sys.tr.NewFuture(n.id, n.barrierNames.name(n.id, id))
	n.barrierWait[id] = append(n.barrierWait[id], f)
	if n.lrc != nil {
		n.lrcBarrierArrive(p, id, se)
	} else if se.Home == n.id {
		se.Arrived++
		n.checkBarrier(p, id, se)
	} else {
		n.send(p, se.Home, wire.BarrierArrive{Barrier: uint32(id), From: uint8(n.id)})
	}
	n.await(p, f)
	// Departing the barrier is an acquire: queued updates apply now, and
	// under the lazy engine the stale copies this node holds refresh
	// against the release's write notices.
	n.drainPendingAll(p)
	if n.lrc != nil {
		n.lrcAcquireRefresh(t)
	}
}

// serveBarrierArrive counts a remote arrival at the barrier's owner node.
func (n *Node) serveBarrierArrive(p rt.Proc, m wire.BarrierArrive) {
	id := int(m.Barrier)
	p.Advance(n.sys.cost.BarrierHandlerCPU)
	se := n.mustSynch(id, directory.SynchBarrier)
	if se.Home != n.id {
		fail(n.id, 0, "barrier", fmt.Sprintf("arrival for barrier %d at non-owner node", id))
	}
	se.Arrived++
	n.barrierFrom[id] = append(n.barrierFrom[id], int(m.From))
	n.checkBarrier(p, id, se)
}

// checkBarrier releases everyone once the expected number of threads have
// arrived: one reply per remote arrival, plus completing local waiters.
func (n *Node) checkBarrier(p rt.Proc, id int, se *directory.SynchEntry) {
	if se.Arrived < se.Expected {
		return
	}
	if se.Arrived > se.Expected {
		fail(n.id, 0, "barrier", fmt.Sprintf("barrier %d overshot: %d arrivals for %d expected",
			id, se.Arrived, se.Expected))
	}
	se.Arrived = 0
	from := n.barrierFrom[id]
	n.barrierFrom[id] = nil
	local := n.barrierWait[id]
	n.barrierWait[id] = nil
	if n.lrc != nil {
		n.lrcBarrierComplete(p, id, from)
	} else if n.sys.cfg.BarrierTree {
		// One release per node, fanned out down a tree: the owner
		// releases its immediate children, each of which wakes its own
		// waiters and forwards to its share of the subtree (§3.4's
		// scalable scheme). The release path costs O(log N) serial sends
		// at every node instead of O(N) at the owner.
		n.treeFanout(p, dedupeNodes(from), func(sub []uint8) wire.Message {
			return wire.BarrierRelease{Barrier: uint32(id), Tree: true, Subtree: sub}
		})
	} else {
		for _, src := range from {
			p.Advance(n.sys.cost.BarrierHandlerCPU)
			n.send(p, src, wire.BarrierRelease{Barrier: uint32(id)})
		}
	}
	n.wake(p, local...)
}

// serveBarrierRelease wakes threads blocked at the barrier: one per
// message under the centralized scheme, every local waiter (plus subtree
// forwarding) under the tree scheme.
func (n *Node) serveBarrierRelease(p rt.Proc, m wire.BarrierRelease) {
	n.barrierDepart(p, int(m.Barrier), m.Tree, m.Subtree, func(sub []uint8) wire.Message {
		return wire.BarrierRelease{Barrier: m.Barrier, Tree: true, Subtree: sub}
	})
}

// barrierDepart is the receiving end of a barrier release, eager or
// lazy: under the tree scheme wake every local waiter and forward the
// release to this node's share of the subtree (release builds the
// message for one child's subtree); under the centralized scheme wake
// one waiter per message.
func (n *Node) barrierDepart(p rt.Proc, id int, tree bool, subtree []uint8, release func(sub []uint8) wire.Message) {
	ws := n.barrierWait[id]
	if !tree {
		if len(ws) == 0 {
			fail(n.id, 0, "barrier", fmt.Sprintf("release for barrier %d with no local waiters", id))
		}
		n.barrierWait[id] = ws[1:]
		n.wake(p, ws[0])
		return
	}
	n.barrierWait[id] = nil
	if len(subtree) > 0 {
		nodes := make([]int, len(subtree))
		for i, c := range subtree {
			nodes[i] = int(c)
		}
		n.treeFanout(p, nodes, release)
	}
	n.wake(p, ws...)
}

// treeFanout sends a tree-scheme barrier release to up to fanout
// children, handing each its round-robin share of the remaining nodes
// (so subtrees balance); release builds the message for one child.
func (n *Node) treeFanout(p rt.Proc, nodes []int, release func(sub []uint8) wire.Message) {
	k := n.sys.cfg.BarrierFanout
	if k <= 1 {
		k = 4
	}
	if k > len(nodes) {
		k = len(nodes)
	}
	rest := nodes[k:]
	for i := 0; i < k; i++ {
		var sub []uint8
		for j := i; j < len(rest); j += k {
			sub = append(sub, uint8(rest[j]))
		}
		p.Advance(n.sys.cost.BarrierHandlerCPU)
		n.send(p, nodes[i], release(sub))
	}
}

// dedupeNodes returns the distinct node ids in arrival order.
func dedupeNodes(from []int) []int {
	seen := make(map[int]bool, len(from))
	var out []int
	for _, f := range from {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// mustSynch looks up a synchronization object, failing on misuse.
func (n *Node) mustSynch(id int, kind directory.SynchKind) *directory.SynchEntry {
	se, ok := n.synch.Lookup(id)
	if !ok {
		fail(n.id, 0, "synchronization", fmt.Sprintf("unknown synchronization object %d", id))
	}
	if se.Kind != kind {
		fail(n.id, 0, "synchronization", fmt.Sprintf("object %d is a %v, not a %v", id, se.Kind, kind))
	}
	return se
}
