package core

// Runtime side of the adaptive protocol engine (internal/adapt): the
// glue between the per-node profiles and the owner-serialized annotation
// switch protocol.
//
// The life of a switch:
//
//  1. Profiling hooks on the fault, serve and flush paths update the
//     directory entry's access counters and the engine's per-variable
//     group profile (adapt.Engine.Note*).
//  2. At release points (lock release, barrier arrival) the releasing
//     thread sweeps every group it touched since the last release and
//     classifies it; opportunistic classifications also run on the fault
//     and serve paths after enough new evidence, so single-phase programs
//     with no intermediate releases (matrix multiply) still adapt.
//  3. A decision becomes an AdaptPropose to the group's home node — or a
//     direct commit when the decider is the home. The home serializes
//     proposals per group: it commits at most one switch per epoch,
//     applies it locally and broadcasts an AdaptCommit.
//  4. Receivers apply the commit to every local entry of the group.
//     Entries with delayed writes still buffered (enqueued, twinned, or
//     mid-flush) defer the switch to the end of their next release flush
//     — the point where release consistency makes the transition safe —
//     via directory.Entry.PendingAnnot.
//
// Mis-annotations that the static runtime aborts on become recovery
// signals here: a write fault on a non-writable object and a Fetch-and-Φ
// on a non-reduction object block the faulting thread on an Urgent
// proposal instead of failing, and a stable-sharing violation purges the
// locked copyset and serves the access (pattern drift, not a crash).

import (
	"fmt"

	"munin/internal/adapt"
	"munin/internal/directory"
	"munin/internal/obs"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// groupOf returns the entry's variable-group base address.
func groupOf(e *directory.Entry) vm.Addr {
	if e.Group != 0 {
		return e.Group
	}
	return e.Start
}

// adaptAtRelease classifies every group profiled since the last release
// point and sends the resulting proposals. Runs on the releasing thread,
// after its DUQ flush.
func (n *Node) adaptAtRelease(t *Thread) {
	if n.adaptEng == nil {
		return
	}
	for _, g := range n.adaptEng.TakeDirty() {
		t.proc.Advance(n.sys.cost.AdaptClassifyCPU)
		n.adviseGroup(t.proc, g)
	}
}

// adaptEvaluate is the opportunistic (fault- or serve-time) counterpart:
// classify one entry's group now. The engine's throttle ensures this runs
// at most once per MinEvents new events per group.
func (n *Node) adaptEvaluate(p rt.Proc, e *directory.Entry) {
	g, ok := n.adaptEng.Lookup(e)
	if !ok {
		return
	}
	n.adaptEng.MarkEvaluated(g)
	p.Advance(n.sys.cost.AdaptClassifyCPU)
	n.adviseGroup(p, g)
}

// adviseGroup turns a classification into a proposal message to the
// group's home, or a direct commit when this node is the home.
func (n *Node) adviseGroup(p rt.Proc, g *adapt.Group) {
	d, ok := n.adaptEng.Decide(g)
	if !ok {
		return
	}
	e := g.Entry()
	if e.Home == n.id {
		n.commitSwitch(p, e, d.Target)
		return
	}
	n.send(p, e.Home, wire.AdaptPropose{
		Addr: groupOf(e), Annot: uint8(d.Target), Epoch: e.Epoch,
		From: uint8(n.id), Events: uint32(g.Acc.Events()),
	})
}

// commitSwitch, at the group's home node, serializes and applies an
// annotation switch: advance the epoch, rewrite every local entry of the
// group, broadcast the commit. Returns false if the switch is declined.
func (n *Node) commitSwitch(p rt.Proc, e *directory.Entry, annot protocol.Annotation) bool {
	if e.Home != n.id {
		panic(fmt.Sprintf("core: node %d committing switch for object homed at %d", n.id, e.Home))
	}
	if e.Annot == annot || adapt.SwitchValid(annot) != nil {
		return false
	}
	if (annot == protocol.Reduction || annot == protocol.ReadOnly) && e.BackingStale && !e.Valid {
		// These protocols serve from the home's store, which no longer
		// holds current data; the pattern may be right but the switch is
		// not safely applicable. Decline.
		return false
	}
	base := groupOf(e)
	epoch := e.Epoch + 1
	for _, ge := range n.dir.GroupEntries(base) {
		n.applySwitch(p, ge, annot, epoch)
	}
	n.adaptEng.Commits++
	n.broadcast(p, wire.AdaptCommit{Addr: base, Annot: uint8(annot), Epoch: epoch})
	n.adaptEng.ResetGroup(base)
	n.wakeAnnotWaiters(p, base)
	return true
}

// serveAdaptPropose handles a switch proposal at the object's home.
func (n *Node) serveAdaptPropose(p rt.Proc, m wire.AdaptPropose) {
	e, ok := n.dir.Lookup(m.Addr)
	if !ok || n.adaptEng == nil {
		return
	}
	annot := protocol.Annotation(m.Annot)
	if e.Annot == annot {
		// Already there: the commit that did it was broadcast to everyone,
		// including the proposer. Echo the current state to any urgent
		// waiter in case its wait began after that commit passed it.
		if m.Urgent {
			n.send(p, int(m.From), wire.AdaptCommit{
				Addr: groupOf(e), Annot: uint8(e.Annot), Epoch: e.Epoch,
			})
		}
		return
	}
	if !m.Urgent && m.Epoch != e.Epoch {
		return // advice formed before an earlier switch: stale
	}
	if !n.commitSwitch(p, e, annot) && m.Urgent {
		// Declined, but the proposer is blocked: echo the current state
		// so it can retry or abort instead of hanging.
		n.send(p, int(m.From), wire.AdaptCommit{
			Addr: groupOf(e), Annot: uint8(e.Annot), Epoch: e.Epoch,
		})
	}
}

// serveAdaptCommit applies a broadcast switch at a non-home node.
func (n *Node) serveAdaptCommit(p rt.Proc, m wire.AdaptCommit) {
	annot := protocol.Annotation(m.Annot)
	for _, e := range n.dir.GroupEntries(m.Addr) {
		if m.Epoch > e.Epoch {
			n.applySwitch(p, e, annot, m.Epoch)
		}
	}
	if n.adaptEng != nil {
		n.adaptEng.ResetGroup(m.Addr)
	}
	n.wakeAnnotWaiters(p, m.Addr)
}

// wakeAnnotWaiters resumes threads blocked on an urgent switch of the
// group.
func (n *Node) wakeAnnotWaiters(p rt.Proc, base vm.Addr) {
	if f, ok := n.annotWait[base]; ok {
		delete(n.annotWait, base)
		n.wake(p, f)
	}
}

// applySwitch rewrites one entry's protocol selection for the given
// commit, deferring while delayed writes are buffered under the old
// protocol: the switch then happens at this node's next release flush of
// the entry, which is exactly a release point.
func (n *Node) applySwitch(p rt.Proc, e *directory.Entry, annot protocol.Annotation, epoch uint32) {
	e.Epoch = epoch
	if e.Enqueued || e.Twin != nil || (e.Modified && e.Params.Delayed) {
		a := annot
		e.PendingAnnot = &a
		return
	}
	n.applyAnnotationSwitch(p, e, annot)
}

// applyAnnotationSwitch is the adaptive variant of applyAnnotation: it
// preserves the copyset (the home's knowledge of holders stays valid
// across protocols) and drops local read replicas that the new protocol
// could silently let go stale.
func (n *Node) applyAnnotationSwitch(p rt.Proc, e *directory.Entry, annot protocol.Annotation) {
	advance(p, n.sys.cost.AdaptSwitchCPU)
	if n.obs != nil && p != nil {
		n.obs.Event(obs.EvEngineSwitch, int64(p.Now()), 0, uint64(e.Start), -1, int64(annot))
	}
	n.AdaptApplied++
	e.PendingAnnot = nil
	e.Annot = annot
	e.Params = annot.Params()
	e.CopysetKnown = false
	e.Acc.Reset()
	if !e.Valid {
		return
	}
	if !e.Params.MultipleWriters && e.Params.Writable && !e.Writable && !e.Owned {
		// A read replica under a single-writer (or single-copy) protocol:
		// the new protocol's write path may not know to update or
		// invalidate it, so it could go silently stale. Drop it and
		// refetch on demand.
		n.dropObject(p, e)
		return
	}
	if e.Writable && e.Params.Delayed && e.Home != n.id {
		// A writable copy switching into a delayed (twin/diff) protocol
		// may hold writes nobody else ever saw — under the old
		// ownership protocol they lived only here, and a future diff
		// (encoded against a twin that already contains them) would
		// never carry them. Delayed protocols need every copy to descend
		// from a common base, so repatriate the content to the home and
		// drop; writers refetch the common base on their next fault.
		n.evacuate(p, e)
		return
	}
	if e.Writable {
		// Force the new protocol's write path on the next store.
		n.protectObject(p, e, vm.ProtRead)
		e.Modified = false
	}
}

// evacuate repatriates the entry's content to its home node and drops
// the local copy, routing future requests home. The data is read and the
// pages unmapped BEFORE any virtual time is charged: charging yields,
// and a user store landing in a still-writable page during the yield
// would be discarded with it (it re-faults instead and re-applies under
// the new protocol).
func (n *Node) evacuate(p rt.Proc, e *directory.Entry) {
	data := n.readObject(e)
	n.handOff(p, e, e.Home)
	n.sendBase(p, e, data)
}

// sendBase ships an already-captured full image of the entry to its home
// node, restoring the home's base copy for the object. Callers must make
// the local copy inaccessible (drop or write-protect) BEFORE calling:
// this charges virtual time, and a concurrent user store landing in a
// still-writable page during the yield would be lost.
func (n *Node) sendBase(p rt.Proc, e *directory.Entry, data []byte) {
	advance(p, n.sys.cost.CopyCost(e.Size))
	n.UpdatesSent++
	n.send(p, e.Home, wire.UpdateBatch{
		From:    uint8(n.id),
		Entries: []wire.UpdateEntry{{Addr: e.Start, Size: uint32(e.Size), Full: data}},
	})
}

// adaptConvResume handles a conventional-protocol operation that resumed
// after its object switched to a delayed protocol mid-request: the just
// installed writable copy may diverge from everyone else's base, so
// restore the common base at the home and retry the write through the
// new protocol's fault path.
func (n *Node) adaptConvResume(t *Thread, e *directory.Entry) {
	// The copy can already have been snatched while its pages mapped in
	// (another in-flight conventional request served by our dispatcher);
	// the server propagated the data then, so only a still-valid copy
	// needs repatriating.
	if e.Home != n.id && e.Valid {
		n.evacuate(t.proc, e)
	}
	n.delayedWrite(t, e)
}

// adaptRecover blocks the calling thread until the entry's group has
// switched to a protocol for which ok() holds, by sending urgent
// proposals to the home. Used where the static runtime would abort on a
// mis-annotation (write to a non-writable object, Fetch-and-Φ on a
// non-reduction object).
func (n *Node) adaptRecover(t *Thread, e *directory.Entry, target protocol.Annotation, op string, ok func() bool) {
	base := groupOf(e)
	for tries := 0; tries < 8; tries++ {
		if ok() {
			return
		}
		if e.Home == n.id {
			if !n.commitSwitch(t.proc, e, target) {
				break
			}
			continue
		}
		f, waiting := n.annotWait[base]
		if !waiting {
			f = n.sys.tr.NewFuture(n.id, fmt.Sprintf("adapt[n%d %#x]", n.id, base))
			n.annotWait[base] = f
		}
		n.send(t.proc, e.Home, wire.AdaptPropose{
			Addr: base, Annot: uint8(target), Epoch: e.Epoch,
			From: uint8(n.id), Urgent: true,
		})
		n.await(t.proc, f)
	}
	if !ok() {
		fail(n.id, e.Start, op,
			fmt.Sprintf("object is %v and the adaptive runtime could not switch it to %v", e.Annot, target))
	}
}
