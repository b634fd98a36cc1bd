package core

import (
	"fmt"

	"munin/internal/directory"
	"munin/internal/duq"
	"munin/internal/obs"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// advance charges d to p when a process is running; post-run inspection
// paths pass nil.
func advance(p rt.Proc, d rt.Time) {
	if p != nil {
		p.Advance(d)
	}
}

// handleFault is the entry point from the vm layer: a user thread's access
// missed or violated protection. It plays the role of the prototype's
// "Munin root thread invoked on access miss" (§3.1): classify the object,
// run the protocol action its annotation selects, and return so the access
// retries.
func (n *Node) handleFault(t *Thread, base vm.Addr, write bool) {
	p := t.proc
	defer t.endSystem(t.system())
	p.Advance(n.sys.cost.FaultTrap)

	if n.obs == nil {
		n.resolveFault(t, base, write)
		return
	}
	// The fault's event id is reserved up front so the fetches and
	// invalidations it triggers can cause-link to it, and the span itself
	// records once the resolution latency is known.
	t0 := p.Now()
	id := n.obs.SpanID()
	prevCause := n.obs.BeginCause(id)
	n.resolveFault(t, base, write)
	n.obs.EndCause(prevCause)
	d := int64(p.Now() - t0)
	n.obs.Latency(obs.OpFault, d)
	var w int64
	if write {
		w = 1
	}
	n.obs.Span(id, obs.EvFault, int64(t0), d, uint64(base), -1, w)
}

// resolveFault is the protocol body of handleFault.
func (n *Node) resolveFault(t *Thread, base vm.Addr, write bool) {
	p := t.proc
	e := n.entry(t, base)
	n.acquire(p, e.Sem)
	defer e.Sem.Release()
	// Updates stashed during this fault but not consumed by an install
	// die with it (see Node.fetchStash).
	defer delete(n.fetchStash, e.Start)
	// Queued incoming updates must merge before the protocol inspects or
	// twins the local copy.
	n.drainPendingObject(p, e.Start)

	if n.lazy(e) {
		// Lazy engine: make the local copy current with respect to
		// every write notice seen — base fetch from the home if none is
		// held, then the missing diffs writer by writer — before the
		// protocol inspects it.
		n.lrcBringCurrent(t, e)
	}

	// Another thread may have resolved the fault while we waited on the
	// entry semaphore.
	if e.Valid && (!write || e.Writable) {
		return
	}
	if write {
		n.writeMiss(t, e)
	} else {
		n.readMiss(t, e)
	}
	if n.obs != nil {
		n.obs.Access(uint64(e.Start), write)
	}
	// A chase parked here while this fault's claim was in flight waits on
	// no notify: the home owning the object is its news.
	if e.Home == n.id && e.Owned {
		n.redispatchChase(p, e)
	}
}

// readMiss obtains a readable copy of the object.
func (n *Node) readMiss(t *Thread, e *directory.Entry) {
	if n.adaptEng != nil && n.adaptEng.NoteReadMiss(e, n.locksHeld > 0) {
		n.adaptEvaluate(t.proc, e)
	}
	switch {
	case e.Annot == protocol.Migratory:
		// Migrate with read AND write access even if the first access
		// is a read (§2.3.2), avoiding a second fault.
		n.migrate(t, e)
	default:
		n.fetchReadCopy(t, e, false)
	}
}

// writeMiss obtains a writable copy, dispatching on the annotation.
func (n *Node) writeMiss(t *Thread, e *directory.Entry) {
	if n.adaptEng != nil {
		due := n.adaptEng.NoteWriteMiss(e, n.locksHeld > 0)
		if !e.Params.Writable || e.Annot == protocol.Reduction {
			// The static runtime aborts here; the adaptive runtime treats
			// the mis-annotation as a signal and switches the object to a
			// writable ownership protocol before retrying.
			n.adaptRecover(t, e, protocol.Conventional, "write fault", func() bool {
				return e.Params.Writable && e.Annot != protocol.Reduction
			})
		} else if due {
			n.adaptEvaluate(t.proc, e)
		}
		if e.Valid && e.Writable {
			// The switch resolved the fault (the new protocol grants the
			// local copy write access).
			e.Modified = true
			return
		}
	}
	if !e.Params.Writable {
		fail(n.id, e.Start, "write fault", fmt.Sprintf("object is %v and not writable", e.Annot))
	}
	switch {
	case e.Annot == protocol.Reduction:
		fail(n.id, e.Start, "write fault",
			"reduction objects must be accessed via Fetch-and-Φ operations")
	case e.Annot == protocol.Migratory:
		n.migrate(t, e)
		if e.Params.Delayed {
			// Switched mid-migration (see migrate): write via the new
			// protocol.
			n.delayedWrite(t, e)
		} else {
			e.Modified = true
		}
	case e.Params.Delayed:
		n.delayedWrite(t, e)
	default:
		n.conventionalWrite(t, e)
	}
}

// fetchReadCopy replicates the object locally with read access by asking
// the probable owner (forwarded as needed), or the home for a home-directed
// object.
func (n *Node) fetchReadCopy(t *Thread, e *directory.Entry, prefetch bool) {
	p := t.proc
	if e.Home == n.id && !e.BackingStale && e.Backing != nil {
		// The home can materialize from its own fresh backing without any
		// message: the initial contents are right here.
		n.installObject(p, e, e.Backing, vm.ProtRead)
	} else {
		n.fetchRemoteCopy(t, e, prefetch)
	}
	// Apply any updates that raced the fetch (writers whose flush saw the
	// fault in progress and addressed this copy), oldest first, each
	// leaving the stash only once merged. Word diffs carry absolute
	// values, so re-applying one the served data already contained is
	// harmless.
	for len(n.fetchStash[e.Start]) > 0 {
		n.applyUpdate(p, e, n.fetchStash[e.Start][0], -1)
		if !e.Valid {
			break // dropped during the charge, stash and all
		}
		n.fetchStash[e.Start] = n.fetchStash[e.Start][1:]
	}
	delete(n.fetchStash, e.Start)
	if n.homeDirected(e) && e.Promises == 0 {
		// Reads held while the copy was in flight or installing are
		// served from it now (serveRead).
		n.redispatchReads(p, e)
	}
}

// installing reports whether a home-directed object's fetched copy is
// valid but still merging the updates that raced its fetch
// (fetchReadCopy). Until it has, later updates queue behind those
// (serveUpdateBatch) and reads wait (serveRead): a reader served in
// between would miss an update whose writer did not address it.
func (n *Node) installing(e *directory.Entry) bool {
	return e.Valid && len(n.fetchStash[e.Start]) > 0 && n.homeDirected(e)
}

// fetchRemoteCopy installs a read copy served by another node.
func (n *Node) fetchRemoteCopy(t *Thread, e *directory.Entry, prefetch bool) {
	p := t.proc
	n.ReadMisses++
	homeServes := n.homeDirected(e)
	dst := e.ProbOwner
	if dst == n.id || homeServes {
		dst = e.Home
	}
	req := wire.ReadReq{Addr: e.Start, Requester: uint8(n.id), Prefetch: prefetch}
	key := pendKey{pendRead, uint64(e.Start)}
	t0 := p.Now()
	var r *reply
	switch {
	case dst != n.id:
		r = n.rpc(t, dst, key, req)
	case homeServes:
		// The home's own miss waits and forwards like any other read.
		f := n.expect(key, wire.KindReadReq)
		n.serveRead(p, req)
		r = n.awaitReply(p, f)
		n.recycle(f)
	default:
		fail(n.id, e.Start, "read miss", "no holder known for object")
	}
	reply := must(r.rd.ReadReply(r.frame()))
	if !homeServes {
		// (A home-served object's reads ignore the hint, and at the home
		// it names the writer that forwards go to.)
		e.ProbOwner = int(reply.Owner)
	}
	// The page is the one copy of the reply's bytes.
	n.installObject(p, e, reply.Data, vm.ProtRead)
	n.done(r)
	if n.obs != nil {
		n.obs.Event(obs.EvFetch, int64(t0), int64(p.Now()-t0), uint64(e.Start), dst, int64(e.Size))
		n.obs.Fetched(uint64(e.Start))
	}
}

// serveRead takes a read request this node receives, or its own miss at a
// home-directed object's home: that home admits the reader first
// (admitReader). Then answerRead serves or forwards it.
func (n *Node) serveRead(p rt.Proc, m wire.ReadReq) {
	e, ok := n.dir.Lookup(m.Addr)
	if !ok {
		n.forwardOrFail(p, m.Addr, int(m.Requester), m, "read request")
		return
	}
	if e.Home == n.id && n.homeDirected(e) {
		n.admitReader(p, e, int(m.Requester))
	}
	n.answerRead(p, e, m)
}

// admitReader registers a reader at a home-directed object's home before
// any answer, so every lookup from now on names it, and announces it to
// every writer keeping an earlier answer (Entry.Cachers). The read then
// waits until each has promised that what it flushed before is out
// (serveCopysetNotify): promises are counted per notify, because one
// cacher can owe two and its first must not release the second reader.
// The home also admits itself for a copy it did not read (applyUpdate).
//
// A node asks only when it holds no copy, so a reader the home already
// registered is announced too: it dropped its copy and may have discarded
// an update the node serving it must have by then — or it is the home,
// counted at a lookup while its own fault was in flight, which writers
// that looked up earlier do not know of.
func (n *Node) admitReader(p rt.Proc, e *directory.Entry, req int) {
	n.checkStableSharing(p, e, req, "read serve")
	e.Copyset = e.Copyset.Add(req)
	e.Cachers.Remove(req).ForEach(func(c int) {
		e.Promises++
		n.send(p, c, wire.CopysetNotify{Addr: e.Start, Reader: uint8(req)})
	})
}

// answerRead serves a read request if this node can supply current data,
// otherwise forwards it along the probable-owner chain.
func (n *Node) answerRead(p rt.Proc, e *directory.Entry, m wire.ReadReq) {
	n.drainPendingObject(p, e.Start) // serve current data, not queued-stale
	var stashed []byte
	serves := n.servable(e)
	if !serves {
		// A full image parked in the fetch stash (a repatriation that
		// arrived while a local fault holds the entry) is current data:
		// serve from it. Without this, a chase can orbit forever while
		// the only copy of the object sits in the stash, waiting for the
		// very fault that is itself waiting on the chase.
		stashed = n.stashedImage(e.Start)
		serves = stashed != nil
	}
	req := int(m.Requester)
	if e.Home == n.id && n.homeDirected(e) && (e.Promises > 0 || (!serves && e.Sem.Busy() && req != n.id)) {
		// Every read of the object comes here. It waits while a cacher
		// owes a promise, and while this home's own copy is in flight
		// (fetchReadCopy serves it then). A home without a copy forwards
		// to the last writer to look up — after every promise, so that
		// holder has every update.
		n.deferredReads[e.Start] = append(n.deferredReads[e.Start], m)
		return
	}
	if !serves {
		n.forward(p, e, m, req)
		return
	}
	if !e.AwaitFrom.Empty() || n.installing(e) {
		// A flushing writer's copyset query counted this copy and its
		// update is still in flight (or still merging into a fresh
		// copy): serving now would hand out data that predates that
		// release. Defer until the update is in.
		n.deferredReads[e.Start] = append(n.deferredReads[e.Start], m)
		return
	}
	// The data is taken here, before the first yield below. The reply is
	// read only where it is encoded — by its send, or for our own chase
	// by the frame that completes the waiting fault — so it goes in a
	// pooled buffer.
	data := stashed
	if data == nil {
		bp := wire.GetBufN(e.Size)
		defer n.sent(bp) // after the send, or while unwinding a stopped machine
		data = (*bp)[:e.Size]
		n.copyCurrent(data, e)
	}
	n.checkStableSharing(p, e, req, "read serve")
	if n.adaptEng != nil && n.adaptEng.NoteServedRead(e, req) {
		n.adaptEvaluate(p, e)
	}
	e.Copyset = e.Copyset.Add(req)
	// A single-writer object now has replicas: the local copy must be
	// write-protected so the next local write faults and invalidates them
	// (otherwise the replicas would go silently stale). Multiple-writer
	// objects keep write access; their changes flow through the DUQ.
	if !e.Params.MultipleWriters && e.Writable {
		n.protectObject(p, e, vm.ProtRead)
	}
	// The reply's owner hint must chase the real owner, not this node: a
	// mere replica claiming itself would let two replicas end up pointing
	// at each other, and an ownership request could then orbit them
	// forever.
	owner := n.id
	if !e.Owned {
		owner = e.ProbOwner
		if owner == n.id {
			owner = e.Home
		}
	}
	p.Advance(n.sys.cost.CopyCost(e.Size))
	if req == n.id {
		// Our own chase came back to us (possible once it re-routes via
		// the home) and this node can now supply the data: complete the
		// waiting fault directly.
		n.resolve(pendKey{pendRead, uint64(e.Start)}).Complete(
			n.newReply(wire.Encode(wire.ReadReply{Addr: e.Start, Owner: uint8(owner), Data: data})))
		return
	}
	n.send(p, req, wire.ReadReply{Addr: e.Start, Owner: uint8(owner), Data: data})
}

// checkStableSharing enforces a stable-sharing object's determined
// copyset against a new sharer: it may not acquire one after the
// relationship has been determined (§2.3.2: "If the sharing pattern
// changes unexpectedly a runtime error is generated"). The adaptive
// runtime reads the violation as pattern drift instead: it purges the
// locked copyset so the next flush re-determines it. op names the caller
// in a failure.
func (n *Node) checkStableSharing(p rt.Proc, e *directory.Entry, req int, op string) {
	if !e.Params.StableSharing || !e.CopysetKnown || e.Copyset.Has(req) {
		return
	}
	if n.adaptEng == nil {
		fail(n.id, e.Start, op,
			fmt.Sprintf("node %d violates the determined stable sharing pattern", req))
	}
	e.CopysetKnown = false
	if n.adaptEng.NoteStableDrift(e) {
		n.adaptEvaluate(p, e)
	}
}

// migrate moves a migratory object here with read+write access,
// invalidating the previous copy (§2.3.2).
func (n *Node) migrate(t *Thread, e *directory.Entry) {
	if e.Valid && e.Owned {
		// The single copy is already here but lost write access (an
		// annotation switch or sharing purge re-protected it): restore.
		n.protectObject(t.proc, e, vm.ProtReadWrite)
		return
	}
	n.ReadMisses++
	dst := e.ProbOwner
	if dst == n.id {
		dst = e.Home
	}
	if dst == n.id {
		// Home with fresh backing: first use, no holder elsewhere.
		if !e.BackingStale && e.Backing != nil {
			n.claim(t.proc, e, append([]byte(nil), e.Backing...))
			return
		}
		fail(n.id, e.Start, "migrate", "no holder known for migratory object")
	}
	t0 := t.proc.Now()
	r := n.rpc(t, dst, pendKey{pendMigrate, uint64(e.Start)},
		wire.MigrateReq{Addr: e.Start, Requester: uint8(n.id)})
	n.claim(t.proc, e, must(r.rd.MigrateReply(r.frame())).Data)
	n.done(r)
	if n.obs != nil {
		n.obs.Event(obs.EvFetch, int64(t0), int64(t.proc.Now()-t0), uint64(e.Start), dst, int64(e.Size))
		n.obs.Migrated(uint64(e.Start))
	}
	if e.Params.Delayed {
		// The object switched to a delayed protocol while the migration
		// was in flight: this copy may hold writes the home never saw.
		// Restore the common base and fall back to read access; a write
		// retries through the new protocol's fault path.
		if e.Valid {
			data := n.readObject(e)
			n.protectObject(t.proc, e, vm.ProtRead)
			e.Modified = false
			if e.Home != n.id {
				n.sendBase(t.proc, e, data)
			}
		}
		e.Owned = false
		e.ProbOwner = e.Home
	}
}

// serveMigrate hands a migratory object over, invalidating the local copy.
func (n *Node) serveMigrate(p rt.Proc, m wire.MigrateReq) {
	e, ok := n.dir.Lookup(m.Addr)
	if !ok {
		n.forwardOrFail(p, m.Addr, int(m.Requester), m, "migrate request")
		return
	}
	n.drainPendingObject(p, e.Start)
	data := n.currentData(e)
	if data == nil {
		n.forward(p, e, m, int(m.Requester))
		return
	}
	if n.adaptEng != nil && n.adaptEng.NoteMigration(e) {
		n.adaptEvaluate(p, e)
	}
	req := int(m.Requester)
	n.handOff(p, e, req)
	p.Advance(n.sys.cost.CopyCost(e.Size))
	n.send(p, req, wire.MigrateReply{Addr: e.Start, Data: data})
	if e.Home != n.id {
		// Anchor the home's hint to the transfer history (see forward).
		n.send(p, e.Home, wire.OwnNotify{Addr: e.Start, Owner: uint8(req)})
	}
}

// delayedWrite implements the DUQ write path (§3.3): fetch current data if
// needed, twin if multiple writers are allowed, enqueue, unprotect.
func (n *Node) delayedWrite(t *Thread, e *directory.Entry) {
	if n.lazy(e) {
		// A pending closed interval materializes now, so the fresh twin
		// separates the new open interval's writes from the closed ones
		// (the other materialization point is the first remote request).
		n.lrcMaterialize(t.proc, e)
	}
	// Stable objects whose determined copyset is empty are private: made
	// locally writable with no twin and no further consistency overhead
	// (§4.2). A fault here means the page was somehow re-protected;
	// restore write access and return.
	if e.Params.StableSharing && e.CopysetKnown && e.Copyset.Empty() && e.Valid {
		n.protectObject(t.proc, e, vm.ProtReadWrite)
		e.Modified = true
		return
	}
	// The write needs the object's current contents to diff against:
	// page it in first (the matmul output pages come from the root
	// exactly this way, §4.1). In an adaptive run the fresh copy can be
	// snatched whenever virtual time passes (an in-flight conventional
	// ownership request from before a protocol switch drops it), so
	// re-check validity after every yield and retry a bounded number of
	// times.
	for tries := 0; ; tries++ {
		if tries == 8 {
			fail(n.id, e.Start, "write fault", "local copy repeatedly invalidated while paging in")
		}
		if !e.Valid {
			n.WriteMisses++
			if n.lazy(e) {
				n.lrcBringCurrent(t, e)
			} else {
				n.fetchReadCopy(t, e, false)
			}
			continue
		}
		if !e.Params.MultipleWriters {
			break
		}
		// Install the twin before charging the copy cost: the charge
		// yields, and an update merged meanwhile must land in the twin as
		// well as the page, or the next diff carries words this node
		// never wrote.
		duq.MakeTwin(e, n.snapshotTwin(e))
		t.proc.Advance(n.sys.cost.CopyCost(e.Size))
		if !e.Valid {
			continue // snatched during the charge: dropObject retired the twin with the copy
		}
		n.Twins++
		break
	}
	n.duq.Enqueue(e)
	n.protectObject(t.proc, e, vm.ProtReadWrite)
	if e.Valid {
		e.Modified = true
	}
}

// conventionalWrite implements the ownership-based write-invalidate
// protocol (Ivy-like): become owner, then invalidate every other replica
// and block until the local copy is the only one (§2.3.2).
func (n *Node) conventionalWrite(t *Thread, e *directory.Entry) {
	if !e.Owned {
		n.WriteMisses++
		dst := e.ProbOwner
		if dst == n.id {
			dst = e.Home
		}
		if dst == n.id {
			// Home owning a never-shared object: take write access
			// directly from backing.
			if !e.BackingStale && e.Backing != nil {
				n.claim(t.proc, e, append([]byte(nil), e.Backing...))
				e.Modified = true
				return
			}
			fail(n.id, e.Start, "write miss", "no owner known for object")
		}
		r := n.rpc(t, dst, pendKey{pendOwn, uint64(e.Start)},
			wire.OwnReq{Addr: e.Start, Requester: uint8(n.id)})
		reply := must(r.rd.OwnReply(r.frame()))
		n.claim(t.proc, e, reply.Data)
		e.Copyset = reply.Copyset.Remove(n.id)
		n.done(r)
		if e.Params.Delayed {
			// The object switched to a delayed protocol while the
			// ownership request was in flight: re-route through the new
			// protocol's write path from a common base.
			n.adaptConvResume(t, e)
			return
		}
	} else if e.Valid {
		n.protectObject(t.proc, e, vm.ProtReadWrite)
	} else if e.Home == n.id && !e.BackingStale && e.Backing != nil {
		// Owner at home that never materialized a live copy: build it
		// from the initial contents.
		n.installObject(t.proc, e, append([]byte(nil), e.Backing...), vm.ProtReadWrite)
	} else {
		fail(n.id, e.Start, "write miss", "owner holds no valid data")
	}
	n.invalidateCopies(t, e)
	e.Modified = true
}

// invalidateCopies sends invalidations to every copyset member and blocks
// until all acknowledge.
func (n *Node) invalidateCopies(t *Thread, e *directory.Entry) {
	members := e.Copyset.Remove(n.id).Nodes(n.sys.Nodes())
	if len(members) == 0 {
		e.Copyset = directory.Copyset{}
		return
	}
	c := n.newCollector(pendKey{pendOwn, uint64(e.Start)}, len(members), "invalidate-acks")
	for _, d := range members {
		n.Invalidations++
		n.send(t.proc, d, wire.Invalidate{Addr: e.Start, NewOwner: uint8(n.id)})
	}
	n.await(t.proc, c.fut)
	n.recycleCollector(c)
	e.Copyset = directory.Copyset{}
}

// serveOwn transfers ownership: reply with data and the copyset, then drop
// the local copy (the new owner invalidates the other replicas).
func (n *Node) serveOwn(p rt.Proc, m wire.OwnReq) {
	e, ok := n.dir.Lookup(m.Addr)
	if !ok {
		n.forwardOrFail(p, m.Addr, int(m.Requester), m, "ownership request")
		return
	}
	n.drainPendingObject(p, e.Start)
	if !e.Owned {
		// An in-flight conventional request can arrive after the object
		// switched to a delayed protocol, where ownership no longer
		// moves. The home's repatriated copy is the current base: serve
		// it rather than chasing a probable-owner chain that may loop.
		if !(n.adaptEng != nil && e.Home == n.id && e.Valid && e.Params.Delayed) {
			n.forward(p, e, m, int(m.Requester))
			return
		}
	}
	data := n.currentData(e)
	if data == nil {
		fail(n.id, e.Start, "ownership serve", "owner holds no valid data")
	}
	req := int(m.Requester)
	if n.adaptEng != nil && n.adaptEng.NoteOwnTransfer(e, req) {
		n.adaptEvaluate(p, e)
	}
	if n.obs != nil {
		n.obs.Event(obs.EvOwnership, int64(p.Now()), 0, uint64(e.Start), req, 0)
	}
	cs := e.Copyset.Remove(req)
	e.Copyset = directory.Copyset{}
	n.handOff(p, e, req)
	p.Advance(n.sys.cost.CopyCost(e.Size))
	n.send(p, req, wire.OwnReply{Addr: e.Start, Copyset: cs, Data: data})
	if e.Home != n.id {
		// Anchor the home's hint to the transfer history (see forward).
		n.send(p, e.Home, wire.OwnNotify{Addr: e.Start, Owner: uint8(req)})
	}
}

// serveInvalidate drops the local copy. A dirty copy under a
// multiple-writer protocol first propagates its pending updates to the new
// owner; a dirty copy otherwise is a runtime error (§3.3).
func (n *Node) serveInvalidate(p rt.Proc, src int, m wire.Invalidate) {
	if e, ok := n.dir.Lookup(m.Addr); ok {
		// An invalidation from a promised updater supersedes the update —
		// clear the promise on every path, including the stale-owner
		// early return below, or reads deferred behind it wait forever.
		e.AwaitFrom = e.AwaitFrom.Remove(src)
		if e.AwaitFrom.Empty() {
			n.redispatchReads(p, e)
		}
		if e.Owned && !e.Params.MultipleWriters {
			// A stale single-writer invalidation: it targets the replica
			// this node had before it became the owner (the invalidator's
			// copyset was snapshotted then, and ownership has since moved
			// here, possibly granted by that very invalidator). The owned
			// copy is the current truth — dropping it would make
			// ownership vanish from the machine and leave every later
			// request orbiting stale hints. Acknowledge and keep.
			// (Multiple-writer delayed invalidations are different: they
			// are flush propagation, and the home legitimately holds
			// Owned; those proceed.)
			n.send(p, src, wire.InvalidateAck{Addr: m.Addr})
			return
		}
		if n.adaptEng != nil && n.adaptEng.NoteInvalidate(e, int(m.NewOwner)) {
			n.adaptEvaluate(p, e)
		}
		if n.puq != nil {
			// The invalidation supersedes any queued updates for the
			// dying copy.
			n.puq.drop(e.Start)
		}
		if e.Modified {
			if e.Params.MultipleWriters && e.Twin != nil {
				entry, bp, changed, cost := n.encodeEntry(e)
				defer n.sent(bp) // after the send, or while unwinding a stopped machine
				p.Advance(cost)
				if changed {
					n.UpdatesSent++
					n.send(p, src, wire.UpdateBatch{
						From: uint8(n.id), Entries: []wire.UpdateEntry{entry},
					})
				}
			} else {
				fail(n.id, e.Start, "invalidate",
					"invalidation would lose local modifications (single-writer object)")
			}
		}
		if n.obs != nil {
			n.obs.Event(obs.EvInvalidate, int64(p.Now()), 0, uint64(e.Start), src, int64(m.NewOwner))
			n.obs.Invalidated(uint64(e.Start))
		}
		n.handOff(p, e, int(m.NewOwner))
	}
	n.send(p, src, wire.InvalidateAck{Addr: m.Addr})
}

// forward relays a request along the probable-owner chain. A hint
// pointing back at the request's own requester is stale (replica-served
// hints and late invalidations can even form cycles among replicas), so
// such chases re-route through the object's home: ownership transfers
// notify the home (OwnNotify), making it the one node whose hint tracks
// the true transfer history. If even the home's hint points at the
// requester, the transfer that took ownership away from the requester is
// still in flight — its notification will arrive, so the request parks
// until then (deferredChase).
func (n *Node) forward(p rt.Proc, e *directory.Entry, m wire.Message, requester int) {
	dst := e.ProbOwner
	if dst == n.id {
		dst = e.Home
	}
	if dst == requester {
		if e.Home == n.id {
			n.deferredChase[e.Start] = append(n.deferredChase[e.Start], m)
			return
		}
		dst = e.Home
	}
	if dst == n.id {
		fail(n.id, e.Start, "forward", fmt.Sprintf("probable-owner chain for %v dead-ends here", m.Kind()))
	}
	n.send(p, dst, m)
}

// forwardOrFail handles a request for an object this node has never seen:
// only the node homeFor names can be asked blind, so relay there; that
// node failing to know the object is a program error.
func (n *Node) forwardOrFail(p rt.Proc, addr vm.Addr, requester int, m wire.Message, op string) {
	home := n.homeFor(addr)
	if n.id == home {
		fail(n.id, addr, op, "request for an address outside every declared shared object")
	}
	n.send(p, home, m)
}
