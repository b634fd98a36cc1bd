package core

import (
	"encoding/binary"
	"fmt"

	"munin/internal/directory"
	"munin/internal/obs"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// applyReduce performs one Fetch-and-Φ on a word, returning the old value.
func applyReduce(old uint32, op wire.ReduceOp, operand uint32) uint32 {
	switch op {
	case wire.ReduceAdd:
		return old + operand
	case wire.ReduceMin:
		if int32(operand) < int32(old) {
			return operand
		}
		return old
	case wire.ReduceMax:
		if int32(operand) > int32(old) {
			return operand
		}
		return old
	case wire.ReduceOr:
		return old | operand
	case wire.ReduceAnd:
		return old & operand
	default:
		panic(fmt.Sprintf("core: unknown reduce op %v", op))
	}
}

// fetchAndOp executes a Fetch-and-Φ on a reduction object (§2.3.2): the
// operation is equivalent to acquire-read-write-release but is implemented
// with a fixed owner to which operations are forwarded.
func (n *Node) fetchAndOp(t *Thread, addr vm.Addr, off int, op wire.ReduceOp, operand uint32) uint32 {
	p := t.proc
	e := n.entry(t, addr)
	if n.adaptEng != nil {
		n.adaptEng.NoteReduce(e)
		if e.Annot != protocol.Reduction {
			// Fetch-and-Φ traffic identifies the reduction pattern
			// outright: switch instead of aborting.
			n.adaptRecover(t, e, protocol.Reduction, "fetch-and-op", func() bool {
				return e.Annot == protocol.Reduction
			})
		}
	}
	if e.Annot != protocol.Reduction {
		fail(n.id, addr, "fetch-and-op",
			fmt.Sprintf("object is %v; Fetch-and-Φ requires a reduction object", e.Annot))
	}
	if off < 0 || off*vm.WordSize >= e.Size {
		fail(n.id, addr, "fetch-and-op", fmt.Sprintf("word offset %d outside object", off))
	}
	if e.Home == n.id {
		n.acquire(p, e.Sem)
		defer e.Sem.Release()
		return n.reduceAtHome(p, e, off, op, operand)
	}
	t0 := p.Now()
	r := n.rpc(t, e.Home, pendKey{pendReduce, uint64(addr)},
		wire.ReduceReq{Addr: e.Start, Off: uint32(off * vm.WordSize), Op: op,
			Operand: operand, Requester: uint8(n.id)})
	old := must(r.rd.ReduceReply(r.frame())).Old
	n.done(r)
	if n.obs != nil {
		n.obs.Latency(obs.OpRemoteOp, int64(p.Now()-t0))
	}
	return old
}

// reduceAtHome applies the operation at the fixed owner and eagerly
// updates replicas (reduction objects use an update protocol with no
// delay: I=N, D=N in Table 1).
func (n *Node) reduceAtHome(p rt.Proc, e *directory.Entry, off int, op wire.ReduceOp, operand uint32) uint32 {
	if e.Home != n.id {
		panic("core: reduceAtHome on non-home node")
	}
	var cur []byte
	if e.Valid {
		cur = n.readObject(e)
	} else {
		cur = e.Backing
	}
	o := off * vm.WordSize
	old := binary.LittleEndian.Uint32(cur[o:])
	binary.LittleEndian.PutUint32(cur[o:], applyReduce(old, op, operand))
	if e.Valid {
		n.writeObjectData(e, cur)
		copy(e.Backing, cur) // keep backing in step at the home
	}
	// Propagate the new value to replicated read copies immediately.
	members := e.Copyset.Remove(n.id).Nodes(n.sys.Nodes())
	if len(members) > 0 {
		data := append([]byte(nil), cur...)
		for _, d := range members {
			n.UpdatesSent++
			n.send(p, d, wire.UpdateBatch{
				From:    uint8(n.id),
				Entries: []wire.UpdateEntry{{Addr: e.Start, Size: uint32(e.Size), Full: data}},
			})
		}
	}
	return old
}

// serveReduce handles a forwarded Fetch-and-Φ at the fixed owner.
func (n *Node) serveReduce(p rt.Proc, m wire.ReduceReq) {
	e, ok := n.dir.Lookup(m.Addr)
	if !ok || e.Home != n.id {
		fail(n.id, m.Addr, "reduce serve", "fetch-and-op arrived at a node that is not the fixed owner")
	}
	if n.adaptEng != nil {
		n.adaptEng.NoteReduce(e)
		if e.Annot != protocol.Reduction {
			// The requester's switch proposal may still be in flight, or
			// the group was retargeted meanwhile; as the home we can
			// commit the recovery directly.
			n.commitSwitch(p, e, protocol.Reduction)
		}
	}
	if e.Annot != protocol.Reduction {
		fail(n.id, m.Addr, "reduce serve",
			fmt.Sprintf("object is %v; Fetch-and-Φ requires a reduction object", e.Annot))
	}
	old := n.reduceAtHome(p, e, int(m.Off)/vm.WordSize, m.Op, m.Operand)
	n.send(p, int(m.Requester), wire.ReduceReply{Addr: e.Start, Old: old})
}

// flushObject implements the Flush library routine (§2.5): propagate one
// object's buffered writes immediately instead of waiting for a release.
func (n *Node) flushObject(t *Thread, addr vm.Addr) {
	e := n.entry(t, addr)
	n.drainPendingObject(t.proc, e.Start)
	if !e.Enqueued {
		return
	}
	n.acquire(t.proc, n.flushSem)
	defer n.flushSem.Release()
	n.duq.Remove(e)
	if n.lazy(e) {
		// The lazy engine cannot push (nobody has asked); the closest
		// honest equivalent is closing an interval over just this
		// object and materializing its diff eagerly, so the first
		// request is served without encode latency.
		n.lrcCloseEntries(t.proc, []*directory.Entry{e})
		n.lrcMaterialize(t.proc, e)
		return
	}
	n.flushEntries(t, []*directory.Entry{e})
}

// invalidateObject implements the Invalidate library routine (§2.5):
// delete the local copy, first propagating changes; if this is the sole
// copy, migrate the data home so it is not lost.
func (n *Node) invalidateObject(t *Thread, addr vm.Addr) {
	p := t.proc
	e := n.entry(t, addr)
	n.drainPendingObject(p, e.Start)
	if !e.Valid {
		return
	}
	if n.lazy(e) {
		// Close any open interval so the buffered writes get notices;
		// dropObject's lazy hook materializes the diffs (the record
		// store preserves the data) and refreshes the home backing.
		if e.Enqueued {
			n.acquire(p, n.flushSem)
			n.duq.Remove(e)
			n.lrcCloseEntries(p, []*directory.Entry{e})
			n.flushSem.Release()
		}
		n.dropObject(p, e)
		return
	}
	if e.Enqueued {
		n.acquire(p, n.flushSem)
		n.duq.Remove(e)
		n.flushEntries(t, []*directory.Entry{e})
		n.flushSem.Release()
	}
	if !e.Valid {
		// flushEntries already dropped it (flush-to-owner objects).
		return
	}
	if e.Home != n.id && e.Copyset.Remove(n.id).Empty() {
		// Sole copy: hand the data to the home before dropping.
		p.Advance(n.sys.cost.CopyCost(e.Size))
		data := n.readObject(e)
		n.send(p, e.Home, wire.UpdateBatch{
			From:    uint8(n.id),
			Entries: []wire.UpdateEntry{{Addr: e.Start, Size: uint32(e.Size), Full: data}},
		})
		e.ProbOwner = e.Home
	}
	n.dropObject(p, e)
}

// preAcquire implements PreAcquire (§2.5): fetch a read copy ahead of use
// to avoid the read-miss latency later.
func (n *Node) preAcquire(t *Thread, addr vm.Addr) {
	e := n.entry(t, addr)
	n.acquire(t.proc, e.Sem)
	defer e.Sem.Release()
	if n.lazy(e) {
		n.drainPendingObject(t.proc, e.Start)
		n.lrcBringCurrent(t, e)
		return
	}
	if e.Valid {
		return
	}
	n.drainPendingObject(t.proc, e.Start)
	if e.Annot == protocol.Migratory {
		// Migratory objects have a single copy; prefetching one means
		// migrating it here.
		n.migrate(t, e)
		return
	}
	n.fetchReadCopy(t, e, true)
}

// phaseChange implements PhaseChange (§2.5): purge the accumulated sharing
// relationship information for the object everywhere, so the next flush
// re-determines it. Private pages go back to faulting.
func (n *Node) phaseChange(t *Thread, addr vm.Addr) {
	e := n.entry(t, addr)
	n.purgeSharing(t.proc, e)
	n.broadcast(t.proc, wire.PhaseChange{Addr: e.Start})
}

func (n *Node) servePhaseChange(m wire.PhaseChange) {
	if e, ok := n.dir.Lookup(m.Addr); ok {
		n.purgeSharing(nil, e)
	}
}

// purgeSharing resets copyset knowledge; p may be nil in dispatcher
// context where protection cost is charged to the dispatcher elsewhere.
func (n *Node) purgeSharing(p rt.Proc, e *directory.Entry) {
	if e.Home != n.id || !n.homeDirected(e) {
		// (A home-directed object's home keeps its copyset: it records
		// who holds a copy, not a determination to redo.)
		e.Copyset = directory.Copyset{}
	}
	e.CopysetKnown = false
	if e.Valid && e.Writable && !e.Enqueued {
		// Privatized page: make it fault (and twin) again.
		e.Modified = false
		n.chargePageOps(p, n.setProtection(e, vm.ProtRead))
	}
}

// changeAnnotation implements ChangeAnnotation (§2.5): flush any pending
// modifications under the old protocol, then switch the annotation (and
// hence the parameter bits) everywhere.
func (n *Node) changeAnnotation(t *Thread, addr vm.Addr, annot protocol.Annotation) {
	e := n.entry(t, addr)
	if n.lrc != nil && (lazyManaged(e) || lazyManaged(&directory.Entry{Params: annot.Params()})) {
		fail(n.id, e.Start, "change annotation",
			"ChangeAnnotation into or out of a lazily managed protocol is not supported under the lazy consistency engine")
	}
	n.drainPendingObject(t.proc, e.Start)
	if e.Enqueued {
		n.acquire(t.proc, n.flushSem)
		n.duq.Remove(e)
		n.flushEntries(t, []*directory.Entry{e})
		n.flushSem.Release()
	}
	n.applyAnnotation(t.proc, e, annot)
	n.broadcast(t.proc, wire.ChangeAnnot{Addr: e.Start, Annot: uint8(annot)})
}

func (n *Node) serveChangeAnnot(p rt.Proc, m wire.ChangeAnnot) {
	if e, ok := n.dir.Lookup(m.Addr); ok {
		if e.Enqueued {
			fail(n.id, e.Start, "change annotation",
				"modifications pending on a remote node; synchronize before changing the protocol")
		}
		n.applyAnnotation(p, e, protocol.Annotation(m.Annot))
	}
}

// applyAnnotation rewrites the entry's protocol selection. Twins and
// copyset knowledge from the old protocol are discarded — at a home, the
// cachers it would notify and the promises it awaits too, releasing the
// reads those held.
func (n *Node) applyAnnotation(p rt.Proc, e *directory.Entry, annot protocol.Annotation) {
	e.Annot = annot
	e.Params = annot.Params()
	e.Copyset = directory.Copyset{}
	e.CopysetKnown = false
	e.Cachers = directory.Copyset{}
	n.retireTwin(e)
	if e.Valid && e.Writable {
		// Force the new protocol's write path on the next store.
		n.setProtection(e, vm.ProtRead)
		e.Modified = false
	}
	if e.Promises > 0 {
		e.Promises = 0
		n.redispatchReads(p, e)
	}
}
