package core

import (
	"cmp"
	"fmt"
	"slices"

	"munin/internal/diffenc"
	"munin/internal/directory"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// releaseFlush propagates every pending write on the DUQ. It runs whenever
// a local thread releases a lock or arrives at a barrier (§3.3) — the
// conservative, eager implementation of release consistency: updates are
// propagated (and acknowledged) at the release itself.
func (n *Node) releaseFlush(t *Thread) {
	if n.duq.Len() == 0 {
		return
	}
	n.acquire(t.proc, n.flushSem)
	defer n.flushSem.Release()
	n.release.drained = n.duq.DrainInto(n.release.drained[:0])
	n.Flushes++
	n.flushEntries(t, n.release.drained)
}

// releaseScratch is one node's reusable release working set, so that a
// steady-state release allocates only what it sends. flushSem, held
// around every flushEntries, serializes its users.
type releaseScratch struct {
	drained []*directory.Entry   // what the DUQ held
	bufs    []*[]byte            // payload buffers the batches carry
	batches [][]wire.UpdateEntry // indexed by destination node
	dests   []int                // one entry's destinations
}

// flushEntries pushes the given enqueued entries' modifications out:
// determine destinations, encode diffs, combine per-destination batches
// into single messages, send, and wait for acknowledgements.
func (n *Node) flushEntries(t *Thread, entries []*directory.Entry) {
	p := t.proc
	// A home's notify that arrives from here on is answered once this
	// flush's updates are out (keepPromises).
	n.flushing = true

	// Phase 1: find the set of remote copies for entries that need it.
	// Result objects skip this (changes go only to the owner/home); stable
	// objects reuse the copyset determined the first time, and
	// home-directed ones the copyset their home keeps current.
	var query []*directory.Entry
	if n.sys.Nodes() > 1 {
		for _, e := range entries {
			if !e.Params.FlushToOwner && !e.CopysetKnown {
				query = append(query, e)
			}
		}
		if len(query) > 0 {
			n.determineCopysets(t, query)
		}
	}

	// Phase 2: encode each entry and assemble one batch per destination.
	sc := &n.release
	if sc.batches == nil {
		sc.batches = make([][]wire.UpdateEntry, n.sys.Nodes())
	}
	var invalidateDelayed []*directory.Entry
	asked := 0 // query is a subsequence of entries: walk it in step
	for _, e := range entries {
		queried := asked < len(query) && query[asked] == e
		if queried {
			asked++
		}
		// Merge any queued incoming updates first, so the diff encoded
		// below carries only this node's own writes.
		n.drainPendingObject(p, e.Start)
		dests := sc.dests[:0]
		switch {
		case e.Params.FlushToOwner:
			if e.Home != n.id {
				dests = append(dests, e.Home)
			}
		default:
			dests = e.Copyset.Remove(n.id).AppendNodes(dests, n.sys.Nodes())
		}
		sc.dests = dests
		if n.adaptEng != nil {
			var cs directory.Copyset
			for _, d := range dests {
				cs = cs.Add(d)
			}
			n.adaptEng.NoteFlush(e, cs) // classification happens at the release sweep
		}
		if len(dests) == 0 {
			// No remote copies. A stable object becomes private: keep
			// it writable with no twin and no further faults (§4.2).
			n.retireTwin(e)
			e.Modified = false
			if e.Params.StableSharing {
				n.protectObject(p, e, vm.ProtReadWrite)
			} else {
				n.protectObject(p, e, vm.ProtRead)
			}
			continue
		}
		if e.Params.Invalidate {
			// Delayed-invalidate protocol (the §2.3.2 variant the
			// prototype "considered but did not implement"; our A1
			// ablation enables it).
			invalidateDelayed = append(invalidateDelayed, e)
			continue
		}
		// Protect, diff, retire — in one monitor hold, before the first
		// charge yields. Another thread of this node may store into the
		// object during any yield below: it must take a write fault and
		// start a twin and a queue entry of its own, or the store lands
		// on a page whose diff is already taken and nobody propagates it.
		// Past this point the flush touches neither the twin, Modified
		// nor the protection.
		pages := n.setProtection(e, vm.ProtRead)
		entry, bp, changed, cost := n.encodeEntry(e)
		if bp != nil {
			sc.bufs = append(sc.bufs, bp)
		}
		n.retireTwin(e)
		e.Modified = false
		p.Advance(cost)
		if !changed && queried && !n.homeDirected(e) {
			// Every node that answered this flush's broadcast query
			// "held" may be expecting an update (it defers read serves
			// until it arrives — Entry.AwaitFrom). Deliver the promise
			// even when the diff came out empty.
			entry = wire.UpdateEntry{Addr: e.Start, Size: uint32(e.Size)}
			changed = true
		}
		if changed {
			for _, d := range dests {
				sc.batches[d] = append(sc.batches[d], entry)
				n.UpdatesSent++
			}
		}
		if !e.Params.FlushToOwner {
			n.chargePageOps(p, pages)
		} else if !e.Enqueued {
			// Fl: the local copy dies once changes are flushed — unless a
			// store during the charge queued it again; its next flush
			// drops it then.
			n.handOff(p, e, e.Home)
		}
	}

	// Phase 3: one message per destination (§3.3: "the update mechanism
	// automatically combines the elements destined for the same node into
	// a single message"). The prototype does not block for replies: the
	// in-order network delivers these updates to any node before it can
	// observe the release itself, which satisfies release consistency
	// condition (2). With AwaitUpdateAcks the flush instead blocks until
	// every destination acknowledges. Destinations go in ascending node
	// order.
	ndests := 0
	for _, b := range sc.batches {
		if len(b) > 0 {
			ndests++
		}
	}
	if ndests > 0 {
		await := n.sys.cfg.AwaitUpdateAcks
		var c *collector
		if await {
			c = n.newCollector(pendKey{pendRead, 0}, ndests, "flush-acks")
		}
		for d, b := range sc.batches {
			if len(b) == 0 {
				continue
			}
			n.send(p, d, wire.UpdateBatch{From: uint8(n.id), NeedAck: await, Entries: b})
			clear(b)
			sc.batches[d] = b[:0]
		}
		for _, bp := range sc.bufs {
			n.sent(bp)
		}
		clear(sc.bufs)
		sc.bufs = sc.bufs[:0]
		if await {
			n.await(p, c.fut)
		}
	}
	n.keepPromises(p)

	// Delayed invalidations (A1 ablation): invalidate remote copies at
	// the release instead of updating them.
	for _, e := range invalidateDelayed {
		pages := n.setProtection(e, vm.ProtRead)
		n.retireTwin(e)
		e.Modified = false
		n.invalidateCopies(t, e)
		n.chargePageOps(p, pages)
	}

	// Annotation switches that arrived while these entries had buffered
	// writes apply now: the writes above propagated under the protocol
	// they were made under, and this is a release point, so the
	// transition is safe (release consistency).
	for _, e := range entries {
		if e.PendingAnnot != nil {
			n.applyAnnotationSwitch(p, e, *e.PendingAnnot)
		}
	}
}

// keepPromises ends the part of a flush that a home's notify waits for:
// this flush's updates are out (acknowledged, when flushes await acks), so
// the promises owed meanwhile leave now, behind them, and a notify from
// here on is answered at once. The home forwards the reads it held to a
// holder the moment the last promise lands, so the holder must have this
// flush's update by then (see answerRead).
func (n *Node) keepPromises(p rt.Proc) {
	if n.sys.cfg.ExactCopyset {
		// A notify answered at once leaves from the dispatcher: without
		// acks an outbox could still hold this flush's updates.
		n.flush(p)
	}
	n.flushing = false
	for _, run := range homeRuns(n.owed) {
		promises := make([]wire.UpdateEntry, len(run))
		for i, e := range run {
			promises[i] = promise(e)
		}
		n.send(p, run[0].Home, wire.UpdateBatch{From: uint8(n.id), Entries: promises})
	}
	n.owed = n.owed[:0]
}

// promise is an empty update of e: what a writer sends the home to say
// that everything it flushed before is out.
func promise(e *directory.Entry) wire.UpdateEntry {
	return wire.UpdateEntry{Addr: e.Start, Size: uint32(e.Size)}
}

// homeRuns sorts entries by home node, stably, and splits them into one
// run per home, in ascending home order.
func homeRuns(entries []*directory.Entry) [][]*directory.Entry {
	slices.SortStableFunc(entries, func(a, b *directory.Entry) int { return cmp.Compare(a.Home, b.Home) })
	var runs [][]*directory.Entry
	for i := 0; i < len(entries); {
		j := i + 1
		for j < len(entries) && entries[j].Home == entries[i].Home {
			j++
		}
		runs = append(runs, entries[i:j])
		i = j
	}
	return runs
}

// homeDirected reports whether a release determines the entry's copyset by
// asking its home — the improved algorithm of §3.3 — instead of by
// broadcast: under Config.ExactCopyset, for the eager update protocols
// (write_shared and producer_consumer, the ones the lazy engine would
// otherwise manage). An invalidating flush keeps the broadcast.
//
// The home of such an object serves every read of it, so it is the one
// ordering point between a writer's lookup and a reader's copy: a reader
// it registered before the lookup is in the answer the writer keeps, and
// a read arriving after it is announced to the writer and waits at the
// home until the writer has promised that its updates are out
// (admitReader). DESIGN.md "Home-directed copysets" draws the races this
// closes.
func (n *Node) homeDirected(e *directory.Entry) bool {
	return n.sys.cfg.ExactCopyset && n.lrc == nil && lazyManaged(e)
}

// determineCopysets finds the remote copies of the given modified entries,
// with the eager broadcast algorithm of §3.3 by default, or with the
// improved home-directed algorithm for the entries it covers when the
// system is configured for it. Stable objects cache the result either way.
func (n *Node) determineCopysets(t *Thread, entries []*directory.Entry) {
	if !n.sys.cfg.ExactCopyset {
		n.determineCopysetsBroadcast(t, entries)
		return
	}
	var exact, bcast []*directory.Entry
	for _, e := range entries {
		if n.homeDirected(e) {
			exact = append(exact, e)
		} else {
			bcast = append(bcast, e)
		}
	}
	if len(exact) > 0 {
		n.determineCopysetsExact(t, exact)
	}
	if len(bcast) > 0 {
		n.determineCopysetsBroadcast(t, bcast)
	}
}

// determineCopysetsBroadcast runs the prototype's dynamic copyset
// determination (§3.3): broadcast the list of locally modified objects,
// and let every node reply with the subset it holds. The paper calls this
// "somewhat inefficient": 2(N−1) messages per flush that must query.
func (n *Node) determineCopysetsBroadcast(t *Thread, entries []*directory.Entry) {
	addrs := make([]vm.Addr, 0, len(entries))
	for _, e := range entries {
		addrs = append(addrs, e.Start)
	}
	c := n.newCollector(pendKey{pendDir, 0}, n.sys.Nodes()-1, "copyset-determination")
	n.broadcast(t.proc, wire.CopysetQuery{From: uint8(n.id), Addrs: addrs})
	holders := n.await(t.proc, c.fut).(map[vm.Addr]directory.Copyset)
	for _, e := range entries {
		e.Copyset = holders[e.Start]
		if e.Params.StableSharing {
			e.CopysetKnown = true
		}
	}
}

// determineCopysetsExact implements the improved algorithm of §3.3
// ("uses the owner node to collect Copyset information"): ask each
// modified object's home node for the copyset it tracks, two messages per
// home instead of 2(N−1) per flush. The writer keeps the answer
// (CopysetKnown) and the home keeps it current, telling the writer of
// every reader it admits later (serveCopysetNotify), so a writer asks
// once, and again only after PhaseChange or an annotation change clears
// what it kept. The home serves, and so registers, every reader itself;
// if its view overshoots (a node silently dropped its copy), the spurious
// update is ignored at the receiver (StaleUpdates).
func (n *Node) determineCopysetsExact(t *Thread, entries []*directory.Entry) {
	// An entry homed here needs no message: its directory entry already
	// tracks every reader.
	var remote []*directory.Entry
	for _, e := range entries {
		if e.Home == n.id {
			e.CopysetKnown = true
		} else {
			remote = append(remote, e)
		}
	}
	if len(remote) == 0 {
		return
	}
	runs := homeRuns(remote)
	c := n.newCollector(pendKey{pendDir, 0}, len(runs), "copyset-lookup")
	c.lookup, c.at = remote, make([]int, n.sys.Nodes())
	off := 0
	for _, run := range runs {
		// A home answers in the order it was asked: its reply lands at its
		// run's offset in remote (collectCopysetInfo).
		c.at[run[0].Home] = off
		off += len(run)
		addrs := make([]vm.Addr, len(run))
		for i, e := range run {
			addrs[i] = e.Start
		}
		n.send(t.proc, run[0].Home, wire.CopysetLookup{From: uint8(n.id), Addrs: addrs})
	}
	n.await(t.proc, c.fut)
}

// serveCopysetLookup answers an exact-copyset request from the home's
// tracked directory state, and registers the requester as a cacher of the
// answer (admitReader keeps it current). The home counts itself when it
// holds a live copy or a fault on the object is in flight here — as the
// broadcast query counts one: the copy being fetched may predate the
// requester's update, which parks in the fetch stash until the install —
// and joins its own copyset then, so the set it keeps is the set its
// cachers update. It marks its backing stale: the requester is writing.
func (n *Node) serveCopysetLookup(p rt.Proc, m wire.CopysetLookup) {
	sets := make([]directory.Copyset, len(m.Addrs))
	for i, a := range m.Addrs {
		e, ok := n.dir.Lookup(a)
		if !ok {
			continue
		}
		if e.Valid || e.Sem.Busy() {
			e.Copyset = e.Copyset.Add(n.id)
		}
		sets[i] = e.Copyset
		e.BackingStale = true
		e.ProbOwner = int(m.From)
		e.Cachers = e.Cachers.Add(int(m.From))
	}
	n.send(p, int(m.From), wire.CopysetInfo{Addrs: m.Addrs, Sets: sets})
}

// serveCopysetNotify is a cacher's side of a reader its home admitted
// (admitReader): the reader joins the copyset this node keeps, and the
// home gets a promise that everything this node flushed before is out —
// at once when no flush of this node is in progress, else at that
// flush's end (keepPromises), after its updates and their acks.
func (n *Node) serveCopysetNotify(p rt.Proc, home int, m wire.CopysetNotify) {
	e, ok := n.dir.Lookup(m.Addr)
	if !ok {
		fail(n.id, m.Addr, "copyset notify", "notify for an object this node never looked up")
	}
	reader := int(m.Reader)
	n.checkStableSharing(p, e, reader, "copyset notify")
	e.Copyset = e.Copyset.Add(reader)
	if n.flushing {
		n.owed = append(n.owed, e)
		return
	}
	n.send(p, home, wire.UpdateBatch{From: uint8(n.id), Entries: []wire.UpdateEntry{promise(e)}})
}

// serveCopysetQuery reports which of the queried objects this node holds a
// valid copy of. A fault in progress on the object (its entry semaphore
// held) counts as holding: the faulting thread is about to install a
// copy, and release consistency requires the querying writer's updates
// to reach that copy — they buffer in the fetch stash until the install
// completes. A home node holding only stale-able backing marks it stale
// (a writer exists now) and remembers the writer as probable owner.
func (n *Node) serveCopysetQuery(p rt.Proc, m wire.CopysetQuery) {
	var held []vm.Addr
	for _, a := range m.Addrs {
		e, ok := n.dir.Lookup(a)
		if !ok {
			if _, fetching := n.dirFetch[n.space.PageBase(a)]; fetching {
				// A local fault is mid-flight before the directory entry
				// even exists: a copy is coming, and it must observe the
				// querying writer's flush. Count it (the update buffers
				// in the fetch stash until the install completes).
				held = append(held, a)
			}
			continue
		}
		if e.Valid || e.Sem.Busy() {
			held = append(held, a)
			e.AwaitFrom = e.AwaitFrom.Add(int(m.From))
			continue
		}
		if e.Home == n.id {
			// The initial contents can no longer serve reads: the
			// querying node is writing the object.
			e.BackingStale = true
			e.ProbOwner = int(m.From)
			n.redispatchChase(p, e)
		}
	}
	n.send(p, int(m.From), wire.CopysetReply{Addrs: held})
}

// encodeEntry turns a modified entry into an UpdateEntry: a word diff
// against the twin when one exists, or the full object otherwise. Returns
// changed=false if the diff is empty, and the virtual time the encoding
// costs. It does not yield: charging is the caller's, once the entry's
// state matches the diff taken (see flushEntries).
//
// The diff or image is built in bp, a pooled buffer only the send reads:
// the caller gives it back with n.sent after the last message carrying
// the entry. bp is nil when the entry carries nothing.
func (n *Node) encodeEntry(e *directory.Entry) (u wire.UpdateEntry, bp *[]byte, changed bool, cost rt.Time) {
	u = wire.UpdateEntry{Addr: e.Start, Size: uint32(e.Size)}
	if e.Twin == nil {
		bp = wire.GetBufN(e.Size)
		u.Full = (*bp)[:e.Size]
		n.copyObject(u.Full, e)
		return u, bp, true, n.sys.cost.CopyCost(e.Size)
	}
	// Encode copies the words it keeps, so the view dies here. The
	// buffer holds the longest encoding, so it never regrows.
	cur, _ := n.viewObject(e)
	bp = wire.GetBufN(diffenc.MaxSize(e.Size))
	diff, st := diffenc.AppendEncode(*bp, e.Twin, cur)
	if diff == nil {
		wire.PutBuf(bp)
		bp = nil
	}
	u.Diff = diff
	return u, bp, diff != nil, n.sys.cost.DiffScanPerWord*rt.Time(st.Words) +
		n.sys.cost.DiffEncodePerWord*rt.Time(st.Changed) +
		n.sys.cost.DiffRunOverhead*rt.Time(st.Runs)
}

// serveUpdateBatch merges incoming updates into the local copies (§3.3: a
// node with a dirty copy incorporates the changes immediately — including
// into the twin, so its own later diff carries only its own writes).
//
// borrowed marks a zero-copy delivery: each entry's Diff/Full aliases
// the transport's receive buffer, released when dispatch returns.
// Applying in place is fine; an entry that outlives the dispatch — a
// fetch-stash park, a pending-update enqueue — is re-owned first.
func (n *Node) serveUpdateBatch(p rt.Proc, src int, m wire.UpdateBatch, borrowed bool) {
	for _, u := range m.Entries {
		e, ok := n.dir.Lookup(u.Addr)
		if !ok {
			if _, fetching := n.dirFetch[n.space.PageBase(u.Addr)]; fetching {
				// The entry itself is still being fetched (the flushing
				// writer's query counted the fault in progress): buffer
				// until the copy installs.
				if borrowed {
					u = wire.OwnEntry(u)
				}
				n.fetchStash[u.Addr] = append(n.fetchStash[u.Addr], u)
				continue
			}
			fail(n.id, u.Addr, "update apply", "update for an object this node has never seen")
		}
		if n.puq != nil {
			// Pending update queue (§6): buffer now, apply at the next
			// synchronization point or local touch (a read serve drains
			// the queue first).
			n.queuePendingUpdate(u, borrowed)
		} else if (!e.Valid && e.Sem.Busy()) || n.installing(e) {
			// A local fault on the object is mid-flight: the copy being
			// fetched must observe this update (the sender's copyset
			// query counted the fault as a holder). Buffer until the
			// install completes (Node.fetchStash), behind the updates
			// already buffered.
			if borrowed {
				u = wire.OwnEntry(u)
			}
			n.fetchStash[e.Start] = append(n.fetchStash[e.Start], u)
		} else if u.Full == nil && diffenc.Empty(u.Diff) {
			// A promise: a queried flush that turned out to carry no
			// changes for us, or a cacher's answer to a notify. Nothing to
			// merge.
		} else {
			n.applyUpdate(p, e, u, src)
		}
		// The promise is kept once the update is in: applyUpdate yields
		// before it merges, and a read served meanwhile (by a local
		// thread redispatching) must not see the copy without it.
		e.AwaitFrom = e.AwaitFrom.Remove(src)
		if e.Promises > 0 && u.Full == nil && diffenc.Empty(u.Diff) {
			e.Promises--
		}
		if e.AwaitFrom.Empty() && e.Promises == 0 {
			n.redispatchReads(p, e)
		}
		if e.Home == n.id && e.Valid {
			// A repatriation or flush made the home's copy current: any
			// parked chases can be answered from it now.
			n.redispatchChase(p, e)
		}
	}
	if m.NeedAck {
		n.send(p, src, wire.UpdateAck{Count: uint32(len(m.Entries))})
	}
}

// applyUpdate merges one UpdateEntry into the local copy.
func (n *Node) applyUpdate(p rt.Proc, e *directory.Entry, u wire.UpdateEntry, src int) {
	n.UpdatesApply++
	if int(u.Size) != e.Size {
		fail(n.id, e.Start, "update apply",
			fmt.Sprintf("update sized %d for object sized %d (granularity mismatch)", u.Size, e.Size))
	}
	if u.Full != nil {
		prot := vm.ProtRead
		if e.Writable {
			prot = vm.ProtReadWrite
		}
		advance(p, n.sys.cost.CopyCost(e.Size))
		n.installObject(p, e, u.Full, prot)
		if e.Home == n.id {
			e.BackingStale = true
			if n.homeDirected(e) {
				// A copy the home did not read (a sole holder handed it
				// home at Invalidate): every writer keeping a copyset
				// must update it from now on.
				n.admitReader(p, e, n.id)
			}
		}
		return
	}
	if !e.Valid {
		// A result object's flush lands at a home that may not have
		// materialized a copy yet: build it from the backing first.
		if e.Home == n.id && e.Backing != nil && !e.BackingStale {
			n.installObject(p, e, append([]byte(nil), e.Backing...), vm.ProtRead)
		} else if n.homeDirected(e) {
			// The home-tracked copyset overshot: this node dropped its
			// copy without the home learning of it. It holds nothing to
			// keep consistent, so the update is safely ignored; a later
			// read faults in fresh data from a holder.
			n.StaleUpdates++
			return
		} else {
			fail(n.id, e.Start, "update apply", "diff received for an invalid local copy")
		}
	}
	// Validate the diff and learn its cost without writing — a corrupt
	// diff fails before any byte changes — then charge, a yield point, and
	// only then merge into the live page. A local thread may store into
	// the (writable, multiple-writer) page during the yield: the merge
	// overwrites only the words the diff carries, so that store survives.
	st, err := diffenc.Check(e.Size, u.Diff)
	if err != nil {
		fail(n.id, e.Start, "update apply", err.Error())
	}
	advance(p, n.sys.cost.DiffDecodePerWord*rt.Time(st.Changed)+
		n.sys.cost.DiffDecodePerRun*rt.Time(st.Runs))
	if !e.Valid {
		// The local copy was dropped while the decode cost was charged
		// (an invalidation or annotation switch won the race): the
		// update dies with it, like a queued update at an unmap.
		return
	}
	n.mergeDiff(e, u.Diff, "update apply")
	if e.Home == n.id {
		e.BackingStale = true
	}
}

// mergeDiff decodes a diff diffenc.Check has passed into the entry's valid
// local copy — straight into the page when the object lies within one,
// read, decode and write back otherwise — and into its twin, so the
// node's own later diff stays clean of it. Both engines merge through
// here (applyUpdate, lrcApply); neither yields inside it, and the charge
// is the caller's. op names the caller in a failure.
func (n *Node) mergeDiff(e *directory.Entry, diff []byte, op string) {
	cur, inPlace := n.viewObject(e)
	if _, err := diffenc.Decode(cur, diff); err != nil {
		fail(n.id, e.Start, op, err.Error())
	}
	if !inPlace {
		n.writeObjectData(e, cur)
	}
	if e.Twin != nil {
		if _, err := diffenc.Decode(e.Twin, diff); err != nil {
			fail(n.id, e.Start, op, "twin merge: "+err.Error())
		}
	}
}

// writeObjectData stores data into the entry's mapped pages without
// touching protections.
func (n *Node) writeObjectData(e *directory.Entry, data []byte) {
	off := 0
	for base, end := n.pagesOf(e); base < end; base += vm.Addr(n.sys.cfg.PageSize) {
		pg, ok := n.space.Lookup(base)
		if !ok {
			panic(fmt.Sprintf("core: node %d writing unmapped page %#x", n.id, base))
		}
		start := 0
		if base < e.Start {
			start = int(e.Start - base)
		}
		end := n.sys.cfg.PageSize
		if base+vm.Addr(n.sys.cfg.PageSize) > e.End() {
			end = int(e.End() - base)
		}
		off += copy(pg.Data[start:end], data[off:])
	}
}
