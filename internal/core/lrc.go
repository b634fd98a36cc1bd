package core

// The core-side driver of the lazy release consistency engine
// (internal/lrc) — Munin's second pluggable consistency subsystem,
// selected per run with Config.Lazy. It manages exactly the objects the
// delayed update queue would otherwise flush eagerly (delayed,
// multiple-writer, non-invalidate, non-flush-to-owner protocols:
// write_shared and producer_consumer); every other annotation keeps its
// synchronous eager machinery unchanged, so a lazy run still migrates
// migratory objects, forwards Fetch-and-Φ, and flushes result objects to
// their home.
//
// The inversion relative to releaseFlush (flush.go):
//
//	eager: release → determine copyset (broadcast) → encode diffs →
//	       push updates to every holder
//	lazy:  release → close an interval (purely local) → notices ride the
//	       next lock grant / barrier release → acquirer refreshes the
//	       copies it holds by pulling diffs, per writer, batched → a
//	       never-held copy pulls a base from the home plus the missing
//	       diffs
//
// Dispatcher serve paths (serveLrcDiff, serveLrcFetch, serveLrcGC) never
// block, so request chains cannot deadlock; shared-state mutations in
// the materialize/apply paths complete before any virtual-time charge
// (a yield point), so concurrent local threads cannot observe a half
// transition.

import (
	"fmt"

	"munin/internal/diffenc"
	"munin/internal/directory"
	"munin/internal/lrc"
	"munin/internal/obs"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// lazyManaged reports whether the entry's protocol is handled by the
// lazy engine when one is configured: the DUQ-buffered multiple-writer
// update protocols. Delayed-invalidate and flush-to-owner protocols keep
// their eager semantics (their propagation is directed, not broadcast).
func lazyManaged(e *directory.Entry) bool {
	p := e.Params
	return p.Delayed && p.MultipleWriters && !p.FlushToOwner && !p.Invalidate
}

// lazy reports whether the entry is lazily managed on this node.
func (n *Node) lazy(e *directory.Entry) bool {
	return n.lrc != nil && lazyManaged(e)
}

// lrcState returns the entry's lazy-engine state, creating it on first
// use.
func (n *Node) lrcState(e *directory.Entry) *directory.LrcEntry {
	if e.Lrc == nil {
		e.Lrc = directory.NewLrcEntry(n.sys.Nodes())
	}
	return e.Lrc
}

// lrcRelease is the lazy engine's release action, replacing releaseFlush:
// entries the lazy engine manages close an interval (no messages at all);
// everything else on the DUQ — result objects, delayed invalidations —
// flushes through the eager machinery unchanged.
func (n *Node) lrcRelease(t *Thread) {
	if n.duq.Len() == 0 {
		return
	}
	n.acquire(t.proc, n.flushSem)
	defer n.flushSem.Release()
	n.release.drained = n.duq.DrainInto(n.release.drained[:0])
	var lazyEntries, eager []*directory.Entry
	for _, e := range n.release.drained {
		if lazyManaged(e) {
			lazyEntries = append(lazyEntries, e)
		} else {
			eager = append(eager, e)
		}
	}
	if len(eager) > 0 {
		n.Flushes++
		n.flushEntries(t, eager)
	}
	if len(lazyEntries) > 0 {
		n.lrcCloseEntries(t.proc, lazyEntries)
	}
}

// lrcCloseEntries closes one interval over the given modified entries:
// record the write notices, extend each entry's pending (unmaterialized)
// range, and write-protect the pages so the next local store opens a new
// interval. The twin is kept — the diff is not computed until someone
// asks for it.
func (n *Node) lrcCloseEntries(p rt.Proc, entries []*directory.Entry) {
	addrs := make([]vm.Addr, 0, len(entries))
	for _, e := range entries {
		addrs = append(addrs, e.Start)
	}
	ivl := n.lrc.CloseInterval(addrs)
	closeVT := n.lrc.VT() // the interval's happens-before stamp
	if n.obs != nil && p != nil {
		n.obs.Event(obs.EvIntervalClose, int64(p.Now()), 0, uint64(addrs[0]), -1, int64(len(entries)))
	}
	for _, e := range entries {
		if e.Twin == nil {
			panic(fmt.Sprintf("core: node %d closing interval over %v without a twin", n.id, e))
		}
		st := n.lrcState(e)
		if st.PendFirst == 0 {
			st.PendFirst = ivl
		}
		st.PendLast = ivl
		st.PendVT = closeVT
		st.Applied[n.id] = ivl // the page always holds its own stores
		e.Modified = false
		n.protectObject(p, e, vm.ProtRead)
		advance(p, n.sys.cost.LrcNoticeCPU)
	}
}

// lrcMaterialize turns the entry's pending closed intervals into a diff
// record in the node's writer store, retiring the twin. Runs at the
// first remote request for the diffs or at the next local write fault —
// whichever first makes the pending writes distinguishable from newer
// ones. All state mutations precede the virtual-time charge (a yield
// point), so it cannot run twice for one pending range.
func (n *Node) lrcMaterialize(p rt.Proc, e *directory.Entry) {
	st := e.Lrc
	if st == nil || st.PendFirst == 0 {
		return
	}
	if e.Twin == nil || !e.Valid {
		panic(fmt.Sprintf("core: node %d materializing %v without twin+copy", n.id, e))
	}
	// Encode copies the words it keeps, so the view dies here and the
	// twin can go back on the free list.
	cur, _ := n.viewObject(e)
	diff, dst := diffenc.Encode(e.Twin, cur)
	first, last, vt := st.PendFirst, st.PendLast, st.PendVT
	st.PendFirst, st.PendLast, st.PendVT = 0, 0, nil
	n.retireTwin(e)
	if !diffenc.Empty(diff) {
		if vt == nil {
			vt = n.lrc.VT()
		}
		n.lrc.AddRecord(e.Start, wire.LrcRecord{First: first, Last: last, VT: vt, Diff: diff})
	}
	advance(p, n.sys.cost.DiffScanPerWord*rt.Time(dst.Words)+
		n.sys.cost.DiffEncodePerWord*rt.Time(dst.Changed)+
		n.sys.cost.DiffRunOverhead*rt.Time(dst.Runs))
}

// lrcAbsorb merges an acquire message's vector timestamp and write
// notices into the node's engine.
func (n *Node) lrcAbsorb(p rt.Proc, vt []uint32, notices []wire.LrcInterval) {
	touched := n.lrc.Absorb(vt, notices)
	if n.obs != nil && p != nil && len(notices) > 0 {
		n.obs.Event(obs.EvNoticeApply, int64(p.Now()), 0, 0, -1, int64(len(notices)))
	}
	advance(p, n.sys.cost.LrcNoticeCPU*rt.Time(touched))
}

// lrcNeeds reports whether the entry's valid base lacks diffs some write
// notice promised.
func (n *Node) lrcNeeds(e *directory.Entry) bool {
	return e.Valid && n.lrc.Stale(e.Start, n.lrcState(e).Applied)
}

// newLrcToken returns a fresh token for a lazy-engine request. Tokens make
// concurrent requests from different local threads independent
// (per-object serialization does not cover the batched acquire refresh).
func (n *Node) newLrcToken() uint32 {
	n.lrcToken++
	return n.lrcToken
}

// lrcRPC sends msg, a lazy-engine request carrying token, and blocks t
// for the response the token routes back.
func (n *Node) lrcRPC(t *Thread, dst int, token uint32, msg wire.Message) any {
	f := n.sys.tr.NewFuture(n.id, n.lrcRPCNames.name(n.id, wire.KindOf(msg)))
	n.pending[pendKey{pendLrc, uint64(token)}] = f
	n.send(t.proc, dst, msg)
	return n.await(t.proc, f)
}

// lrcFetchBase pulls a base copy of the object from its home node and
// installs it read-only; the response's applied vector says which diffs
// the base already incorporates.
func (n *Node) lrcFetchBase(t *Thread, e *directory.Entry) {
	st := n.lrcState(e)
	if e.Home == n.id {
		if e.Backing == nil {
			fail(n.id, e.Start, "lrc fetch", "home holds neither a copy nor a backing")
		}
		// The home's base is its backing; st.Applied already describes
		// it (zeros initially, refreshed when a lazy drop folded the
		// live copy back in).
		n.adoptObject(t.proc, e, append([]byte(nil), e.Backing...), vm.ProtRead)
		return
	}
	n.ReadMisses++
	t0 := t.proc.Now()
	token := n.newLrcToken()
	resp := n.lrcRPC(t, e.Home, token,
		wire.LrcFetchReq{Addr: e.Start, Requester: uint8(n.id), Token: token}).(wire.LrcFetchResp)
	n.adoptObject(t.proc, e, resp.Data, vm.ProtRead) // decoded or re-owned for this node alone
	if n.obs != nil {
		n.obs.Event(obs.EvFetch, int64(t0), int64(t.proc.Now()-t0), uint64(e.Start), e.Home, int64(e.Size))
		n.obs.Fetched(uint64(e.Start))
	}
	for j := range st.Applied {
		if j < len(resp.Applied) {
			st.Applied[j] = resp.Applied[j]
		} else {
			st.Applied[j] = 0
		}
	}
	// Note Applied[self] stays whatever the SERVED base incorporates:
	// this node's own committed records are not in the home's base
	// unless the home applied them, and lrcBringCurrent replays the
	// missing ones from the local store (no messages).
}

// serveLrcFetch answers a base-copy request at the object's home: the
// twin if local writes are in flight (the twin is the base without them),
// else the live page, else the backing. The response carries the base's
// applied vector so the fetcher pulls exactly the missing diffs.
func (n *Node) serveLrcFetch(p rt.Proc, m wire.LrcFetchReq) {
	e, ok := n.dir.Lookup(m.Addr)
	if !ok || e.Home != n.id {
		fail(n.id, m.Addr, "lrc fetch serve", "base fetch arrived at a node that is not the object's home")
	}
	st := n.lrcState(e)
	applied := append([]uint32(nil), st.Applied...)
	// Only the send reads the base: it goes in a pooled buffer.
	bp := wire.GetBufN(e.Size)
	defer n.sent(bp) // after the send, or while unwinding a stopped machine
	data := (*bp)[:e.Size]
	switch {
	case e.Valid && e.Twin != nil:
		copy(data, e.Twin)
		applied[n.id] = n.lrc.LastRecord(e.Start)
	case e.Valid:
		n.copyObject(data, e)
	case e.Backing != nil:
		copy(data, e.Backing)
	default:
		fail(n.id, e.Start, "lrc fetch serve", "home holds neither a copy nor a backing")
	}
	e.Copyset = e.Copyset.Add(int(m.Requester))
	p.Advance(n.sys.cost.CopyCost(e.Size))
	n.send(p, int(m.Requester), wire.LrcFetchResp{
		Addr: e.Start, Token: m.Token, Applied: applied, Data: data,
	})
}

// lrcDiffFetch pulls, from one writer, the diff records for the given
// objects beyond the given applied intervals.
func (n *Node) lrcDiffFetch(t *Thread, writer int, addrs []vm.Addr, after []uint32) wire.LrcDiffResp {
	n.lrc.Stats.DiffRequests++
	t0 := t.proc.Now()
	token := n.newLrcToken()
	resp := n.lrcRPC(t, writer, token,
		wire.LrcDiffReq{Requester: uint8(n.id), Token: token, Addrs: addrs, After: after}).(wire.LrcDiffResp)
	records := 0
	for _, s := range resp.Sets {
		n.lrc.Stats.RecordsFetched += len(s.Records)
		records += len(s.Records)
	}
	if n.obs != nil {
		d := int64(t.proc.Now() - t0)
		n.obs.Latency(obs.OpDiffFetch, d)
		n.obs.Event(obs.EvFetch, int64(t0), d, uint64(addrs[0]), writer, int64(records))
		for _, a := range addrs {
			n.obs.Fetched(uint64(a))
		}
	}
	return resp
}

// serveLrcDiff answers a diff request from the node's writer store,
// materializing pending diffs first — the "created lazily at the first
// remote request" half of the engine. Never blocks.
func (n *Node) serveLrcDiff(p rt.Proc, m wire.LrcDiffReq) {
	sets := make([]wire.LrcDiffSet, 0, len(m.Addrs))
	for i, a := range m.Addrs {
		if e, ok := n.dir.Lookup(a); ok && e.Lrc != nil {
			n.lrcMaterialize(p, e)
		}
		var after uint32
		if i < len(m.After) {
			after = m.After[i]
		}
		sets = append(sets, wire.LrcDiffSet{Addr: a, Records: n.lrc.RecordsAfter(a, after)})
		p.Advance(n.sys.cost.LrcDiffFetchCPU)
	}
	n.send(p, int(m.Requester), wire.LrcDiffResp{Token: m.Token, Sets: sets})
}

// lrcApply merges fetched diff records into the entry's page (and twin,
// so the node's own later diff stays clean of them) in happens-before
// order, then advances the applied vector. Mutations per record complete
// before the record's charge.
func (n *Node) lrcApply(p rt.Proc, e *directory.Entry, sets []lrc.WriterRecords) {
	st := n.lrcState(e)
	lrc.Order(sets, func(_ int, r *wire.LrcRecord) {
		switch {
		case r.Full != nil:
			if len(r.Full) != e.Size {
				fail(n.id, e.Start, "lrc apply",
					fmt.Sprintf("full record sized %d for object sized %d", len(r.Full), e.Size))
			}
			n.writeObjectData(e, r.Full)
			if e.Twin != nil {
				copy(e.Twin, r.Full)
			}
			n.UpdatesApply++
			advance(p, n.sys.cost.CopyCost(e.Size))
		case !diffenc.Empty(r.Diff):
			// Validate without writing, so a corrupt record fails before
			// a byte of page or twin changes; then merge in place.
			dst, err := diffenc.Check(e.Size, r.Diff)
			if err != nil {
				fail(n.id, e.Start, "lrc apply", err.Error())
			}
			n.mergeDiff(e, r.Diff, "lrc apply")
			n.UpdatesApply++
			advance(p, n.sys.cost.DiffDecodePerWord*rt.Time(dst.Changed)+
				n.sys.cost.DiffDecodePerRun*rt.Time(dst.Runs))
		}
	})
	for _, s := range sets {
		// Advance only to what the request covered (plus records the
		// writer volunteered beyond it) — never to notices that arrived
		// mid-fetch, whose diffs this response does not carry.
		have := st.Applied[s.Writer]
		if s.UpTo > have {
			have = s.UpTo
		}
		for _, r := range s.Records {
			if r.Last > have {
				have = r.Last
			}
		}
		st.Applied[s.Writer] = have
	}
}

// lrcBringCurrent makes the entry's local copy current with respect to
// every write notice this node has seen: fetch a base from the home if
// none is held, then pull and apply the missing diffs writer by writer.
// The caller holds the entry's semaphore.
func (n *Node) lrcBringCurrent(t *Thread, e *directory.Entry) {
	if !e.Valid {
		n.lrcFetchBase(t, e)
	}
	st := n.lrcState(e)
	var sets []lrc.WriterRecords
	// A freshly fetched base may lack this node's OWN committed records
	// (the home serves what it has applied, which need not include
	// them): replay the missing ones from the local store, no messages.
	if own := n.lrc.RecordsAfter(e.Start, st.Applied[n.id]); len(own) > 0 {
		sets = append(sets, lrc.WriterRecords{
			Writer: n.id, UpTo: n.lrc.LastRecord(e.Start), Records: own,
		})
	}
	for _, j := range n.lrc.NeedsFrom(e.Start, st.Applied) {
		// Snapshot the noticed interval before the fetch yields: the
		// response covers exactly this much.
		upTo := n.lrc.Noticed(e.Start)[j]
		resp := n.lrcDiffFetch(t, j, []vm.Addr{e.Start}, []uint32{st.Applied[j]})
		var recs []wire.LrcRecord
		if len(resp.Sets) > 0 {
			recs = resp.Sets[0].Records
		}
		sets = append(sets, lrc.WriterRecords{Writer: j, UpTo: upTo, Records: recs})
	}
	if len(sets) == 0 {
		return
	}
	n.lrcApply(t.proc, e, sets)
}

// lrcAcquireRefresh is the acquire-directed propagation step: after
// absorbing a grant's or barrier release's write notices, refresh every
// stale copy this node holds, batching the diff requests per writer
// (one request/response pair per writer regardless of how many objects
// it dirtied — the batching that replaces the eager flush's one update
// per (writer, holder, flush)). Copies this node does not hold are left
// alone; a later fault pulls them base-plus-diffs on demand.
func (n *Node) lrcAcquireRefresh(t *Thread) {
	var stale []*directory.Entry
	for e := range n.dir.All() {
		if lazyManaged(e) && n.lrcNeeds(e) {
			stale = append(stale, e)
		}
	}
	if len(stale) == 0 {
		return
	}
	// All is address-ascending; acquiring the semaphores in that order
	// cannot cycle with the fault path (which holds one).
	for _, e := range stale {
		n.acquire(t.proc, e.Sem)
	}
	defer func() {
		for i := len(stale) - 1; i >= 0; i-- {
			stale[i].Sem.Release()
		}
	}()
	// Recheck after the waits (another thread may have refreshed or the
	// copy may have been dropped) and snapshot the needs before the first
	// fetch yields: one set per (entry, writer) pair, entry by entry in
	// address order, writers ascending within an entry. stale[i]'s sets
	// are sets[from[i]:from[i+1]].
	from := make([]int, len(stale)+1)
	sets := make([]lrc.WriterRecords, 0, len(stale))
	for i, e := range stale {
		from[i] = len(sets)
		if !e.Valid {
			continue
		}
		// NeedsFrom's test, appended in place rather than listed.
		noticed, applied := n.lrc.Noticed(e.Start), n.lrcState(e).Applied
		for j := range noticed {
			if j != n.id && noticed[j] > applied[j] {
				sets = append(sets, lrc.WriterRecords{Writer: j})
			}
		}
	}
	from[len(stale)] = len(sets)
	if len(sets) == 0 {
		return
	}
	// One request per writer, writers ascending, each listing its objects
	// in address order. The requests' lists share one array per field,
	// cut per writer: a sent message is kept until it is delivered.
	addrs := make([]vm.Addr, len(sets))
	after := make([]uint32, len(sets))
	lo := 0
	for j := nextWriter(sets, -1); j >= 0; j = nextWriter(sets, j) {
		hi := lo
		for i, e := range stale {
			for k := from[i]; k < from[i+1]; k++ {
				if sets[k].Writer == j {
					addrs[hi], after[hi] = e.Start, e.Lrc.Applied[j]
					// Snapshot before the fetch yields (see lrcBringCurrent).
					sets[k].UpTo = n.lrc.Noticed(e.Start)[j]
					hi++
				}
			}
		}
		resp := n.lrcDiffFetch(t, j, addrs[lo:hi:hi], after[lo:hi:hi])
		// The response lists its sets in request order, which is the
		// order of writer j's sets in sets.
		r := 0
		for k := range sets {
			if sets[k].Writer != j {
				continue
			}
			if r < len(resp.Sets) {
				sets[k].Records = resp.Sets[r].Records
			}
			r++
		}
		lo = hi
	}
	for i, e := range stale {
		if es := sets[from[i]:from[i+1]]; len(es) > 0 && e.Valid {
			n.lrcApply(t.proc, e, es)
		}
	}
}

// nextWriter returns the lowest writer above j among the sets, or -1
// when there is none.
func nextWriter(sets []lrc.WriterRecords, j int) int {
	next := -1
	for _, s := range sets {
		if s.Writer > j && (next < 0 || s.Writer < next) {
			next = s.Writer
		}
	}
	return next
}

// lrcFloors computes this node's applied floors: per writer, the lowest
// interval some base this node holds (a live copy, or the home backing
// that would serve a future fetch) still lacks; the writer's diffs at or
// below the floor minus one must be kept. Capped at the node's own
// vector timestamp — it cannot vouch for intervals it has not seen.
func (n *Node) lrcFloors() []uint32 {
	fl := n.lrc.VT()
	for e := range n.dir.All() {
		if !lazyManaged(e) || e.Lrc == nil {
			continue
		}
		hasBase := e.Valid || (e.Home == n.id && e.Backing != nil)
		if !hasBase {
			continue
		}
		noticed := n.lrc.Noticed(e.Start)
		if noticed == nil {
			continue
		}
		for j := range fl {
			if j == n.id {
				continue
			}
			if noticed[j] > e.Lrc.Applied[j] && e.Lrc.Applied[j] < fl[j] {
				fl[j] = e.Lrc.Applied[j]
			}
		}
	}
	return fl
}

// serveLrcGC applies a garbage-collection floor broadcast by a barrier
// master.
func (n *Node) serveLrcGC(m wire.LrcGC) {
	n.lrc.GC(m.Floors)
}

// lrcDrop folds a dying local copy back into the lazy bookkeeping before
// dropObject unmaps it: pending diffs materialize (the record store is
// the propagation medium — dropping the twin would lose them), and at
// the home the page content refreshes the backing so future base fetches
// serve it with the entry's applied vector intact. Non-home drops reset
// the applied vector; the next fetch overwrites it.
func (n *Node) lrcDrop(p rt.Proc, e *directory.Entry) {
	if !e.Valid {
		return
	}
	n.lrcMaterialize(p, e)
	if e.Home == n.id {
		e.Backing = n.readObject(e)
		e.BackingStale = false
	} else {
		e.Lrc = directory.NewLrcEntry(n.sys.Nodes())
	}
}

// --- lazy synchronization message handling ---

// lrcLockAcquire runs the remote-acquire path under the lazy engine: the
// request to dst carries the acquirer's vector timestamp, the grant
// returns the releaser's plus the missing write notices (the
// acquire-with-notices grant), and departing the acquire refreshes the
// stale copies this node holds.
func (n *Node) lrcLockAcquire(t *Thread, id int, se *directory.SynchEntry, dst int) {
	p := t.proc
	grant := n.rpc(t, dst, pendKey{pendLock, uint64(id)},
		wire.LrcLockAcq{Lock: uint32(id), Requester: uint8(n.id), VT: n.lrc.VT()}).(wire.LrcLockGrant)
	n.lockGranted(id, se)
	n.drainPendingAll(p)
	n.lrcAbsorb(p, grant.VT, grant.Notices)
	n.lrcAcquireRefresh(t)
	n.applyGrantUpdates(t, grant.Updates)
}

// sendLockGrant transfers lock ownership to dst: the eager grant, or the
// lazy acquire-with-notices grant tailored to the acquirer's vector
// timestamp. Both piggyback the associated objects' data (lazily managed
// associates are excluded — their consistency travels as notices).
func (n *Node) sendLockGrant(p rt.Proc, id int, se *directory.SynchEntry, dst int, reqVT []uint32) {
	if n.lrc != nil {
		n.send(p, dst, wire.LrcLockGrant{
			Lock:    uint32(id),
			VT:      n.lrc.VT(),
			Notices: n.lrc.NoticesSince(reqVT),
			Updates: n.lockPiggyback(p, se, dst),
		})
		return
	}
	n.send(p, dst, wire.LockGrant{Lock: uint32(id), Updates: n.lockPiggyback(p, se, dst)})
}

// lrcSuccVT returns (and forgets) the queued successor's vector timestamp
// for the lock, recorded from its request; a missing record degrades to
// "send everything above the floor" (zeros), which is correct, just
// fatter.
func (n *Node) lrcSuccVT(id int) []uint32 {
	vt := n.lockSuccVT[id]
	delete(n.lockSuccVT, id)
	if vt == nil {
		vt = make([]uint32, n.sys.Nodes())
	}
	return vt
}

// --- lazy barrier handling ---

// lrcBarrierArrive sends (or locally records) a barrier arrival with the
// lazy payload: vector timestamp, write notices above the sender's
// floor, and the sender's applied floors for garbage collection.
func (n *Node) lrcBarrierArrive(p rt.Proc, id int, se *directory.SynchEntry) {
	if se.Home == n.id {
		se.Arrived++
		n.lrcNoteArrival(id, n.id, n.lrc.VT(), n.lrcFloors(), true)
		n.checkBarrier(p, id, se)
		return
	}
	n.send(p, se.Home, wire.LrcBarrierArrive{
		Barrier: uint32(id), From: uint8(n.id),
		VT:      n.lrc.VT(),
		Floors:  n.lrcFloors(),
		Notices: n.lrc.NoticesSince(n.lrc.Floor()),
	})
}

// serveLrcBarrierArrive counts a remote lazy arrival at the barrier's
// master, absorbing its notices and min-merging its floors.
func (n *Node) serveLrcBarrierArrive(p rt.Proc, m wire.LrcBarrierArrive) {
	id := int(m.Barrier)
	p.Advance(n.sys.cost.BarrierHandlerCPU)
	se := n.mustSynch(id, directory.SynchBarrier)
	if se.Home != n.id {
		fail(n.id, 0, "barrier", fmt.Sprintf("lazy arrival for barrier %d at non-master node", id))
	}
	n.lrcAbsorb(p, m.VT, m.Notices)
	se.Arrived++
	n.barrierFrom[id] = append(n.barrierFrom[id], int(m.From))
	n.lrcNoteArrival(id, int(m.From), m.VT, m.Floors, false)
	n.checkBarrier(p, id, se)
}

// lrcNoteArrival accumulates one barrier arrival's lazy payload at the
// master: its vector timestamp (for per-destination notice tailoring)
// and its floors (for garbage collection). local marks the master's own
// arrivals, which contribute floors but need no release message.
func (n *Node) lrcNoteArrival(id, from int, vt, floors []uint32, local bool) {
	if !local {
		n.barrierVTs[id] = append(n.barrierVTs[id], vt)
	}
	n.barrierFloors[id] = lrc.MinFloors(n.barrierFloors[id], floors)
	if n.barrierNodes[id] == nil {
		n.barrierNodes[id] = make(map[int]bool)
	}
	n.barrierNodes[id][from] = true
}

// lrcBarrierComplete releases a lazy barrier: one acquire-with-notices
// release per remote arrival (or per tree child), each tailored to what
// the arrival had seen, then the knowledge floor advances and — when
// every node of the machine took part — the merged applied floors are
// broadcast as the garbage-collection message.
func (n *Node) lrcBarrierComplete(p rt.Proc, id int, from []int) {
	mergedVT := n.lrc.VT()
	vts := n.barrierVTs[id]
	n.barrierVTs[id] = nil
	if n.sys.cfg.BarrierTree {
		nodes := dedupeNodes(from)
		// One payload for the whole tree: notices above the lowest
		// arrival timestamp cover every destination.
		minVT := append([]uint32(nil), mergedVT...)
		for _, vt := range vts {
			minVT = lrc.MinFloors(minVT, vt)
		}
		notices := n.lrc.NoticesSince(minVT)
		n.treeFanout(p, nodes, func(sub []uint8) wire.Message {
			return wire.LrcBarrierRelease{
				Barrier: uint32(id), Tree: true, Subtree: sub, VT: mergedVT, Notices: notices,
			}
		})
	} else {
		for i, src := range from {
			p.Advance(n.sys.cost.BarrierHandlerCPU)
			var vt []uint32
			if i < len(vts) {
				vt = vts[i]
			}
			n.send(p, src, wire.LrcBarrierRelease{
				Barrier: uint32(id), VT: mergedVT, Notices: n.lrc.NoticesSince(vt),
			})
		}
	}
	n.lrc.AdvanceFloor(mergedVT)

	floors := n.barrierFloors[id]
	n.barrierFloors[id] = nil
	contributors := n.barrierNodes[id]
	n.barrierNodes[id] = nil
	if len(contributors) == n.sys.Nodes() && n.lrcFloorsAdvanced(floors) {
		n.broadcast(p, wire.LrcGC{Floors: floors})
		n.lrc.GC(floors)
		copy(n.lrcLastGC, floors)
	}
}

// lrcFloorsAdvanced reports whether the floors gained on the last
// garbage-collection broadcast (an all-zero or repeated floor is not
// worth N-1 messages).
func (n *Node) lrcFloorsAdvanced(floors []uint32) bool {
	if floors == nil {
		return false
	}
	for j, f := range floors {
		if j < len(n.lrcLastGC) && f > n.lrcLastGC[j] {
			return true
		}
	}
	return false
}

// --- post-run reconciliation ---

// finishLazy makes a finished lazy run's shared memory well defined for
// inspection, exactly once: every pending or still-open interval
// materializes into the record stores, and then every surviving base
// (live copies everywhere, the backing at each home) applies the records
// it lacks, in happens-before order. After it, ObjectData/FinalImage
// behave as after an eager run: every surviving copy is current.
func (s *System) finishLazy() {
	if !s.cfg.Lazy {
		return
	}
	s.lazyOnce.Do(func() {
		// 1. Materialize every twin still alive: pending closed
		// intervals, and unreleased writes at run end (closed into one
		// final virtual interval so they enter the record store, as an
		// eager run's final image would have carried them in a copy).
		for _, n := range s.nodes {
			for e := range n.dir.All() {
				if !lazyManaged(e) || e.Twin == nil || !e.Valid {
					continue
				}
				st := n.lrcState(e)
				if e.Enqueued {
					n.duq.Remove(e)
				}
				if st.PendFirst == 0 && e.Modified {
					ivl := n.lrc.CloseInterval([]vm.Addr{e.Start})
					st.PendFirst, st.PendLast = ivl, ivl
					st.PendVT = n.lrc.VT()
					st.Applied[n.id] = ivl
					e.Modified = false
				}
				if st.PendFirst != 0 {
					n.lrcMaterialize(nil, e)
				} else {
					n.retireTwin(e)
				}
			}
		}
		// 2. Collect every node's record store per object.
		recs := make(map[vm.Addr][]lrc.WriterRecords)
		for _, n := range s.nodes {
			for _, a := range n.lrc.RecordAddrs() {
				recs[a] = append(recs[a], lrc.WriterRecords{
					Writer: n.id, Records: n.lrc.RecordsAfter(a, 0),
				})
			}
		}
		// 3. Reconcile every surviving base against the records it has
		// not incorporated.
		for _, n := range s.nodes {
			for e := range n.dir.All() {
				if !lazyManaged(e) {
					continue
				}
				switch {
				case e.Valid:
					n.lazyFinishBase(e, recs[e.Start], false)
				case e.Home == n.id && e.Backing != nil:
					n.lazyFinishBase(e, recs[e.Start], true)
				}
			}
		}
	})
}

// lazyFinishBase applies, post-run, the records the base (live page, or
// home backing) has not incorporated, in happens-before order.
func (n *Node) lazyFinishBase(e *directory.Entry, sets []lrc.WriterRecords, backing bool) {
	st := n.lrcState(e)
	var pend []lrc.WriterRecords
	for _, s := range sets {
		var keep []wire.LrcRecord
		for _, r := range s.Records {
			if r.Last > st.Applied[s.Writer] {
				keep = append(keep, r)
			}
		}
		if len(keep) > 0 {
			pend = append(pend, lrc.WriterRecords{Writer: s.Writer, Records: keep})
		}
	}
	if len(pend) == 0 {
		return
	}
	var data []byte
	if backing {
		data = append([]byte(nil), e.Backing...)
	} else {
		data = n.readObject(e)
	}
	lrc.Order(pend, func(writer int, r *wire.LrcRecord) {
		switch {
		case r.Full != nil:
			copy(data, r.Full)
		case !diffenc.Empty(r.Diff):
			if _, err := diffenc.Decode(data, r.Diff); err != nil {
				panic(fmt.Sprintf("core: node %d post-run reconcile of %#x: %v", n.id, e.Start, err))
			}
		}
		if r.Last > st.Applied[writer] {
			st.Applied[writer] = r.Last
		}
	})
	if backing {
		e.Backing = data
	} else {
		n.writeObjectData(e, data)
	}
}

// LrcStats aggregates the lazy engine's counters across nodes
// (zero-valued when the run was eager).
func (s *System) LrcStats() lrc.Stats {
	var st lrc.Stats
	for _, n := range s.nodes {
		if n.lrc == nil {
			continue
		}
		e := n.lrc.Stats
		st.Intervals += e.Intervals
		st.NoticesSent += e.NoticesSent
		st.NoticesAbsorbed += e.NoticesAbsorbed
		st.DiffRequests += e.DiffRequests
		st.RecordsFetched += e.RecordsFetched
		st.RecordsMaterialized += e.RecordsMaterialized
		st.RecordsServed += e.RecordsServed
		st.RecordsGCed += e.RecordsGCed
		st.NoticesGCed += e.NoticesGCed
	}
	return st
}

// serveLrcBarrierRelease wakes threads blocked at a lazy barrier,
// absorbing the release's notices and advancing the knowledge floor
// first so the departing threads' acquire refresh sees them.
func (n *Node) serveLrcBarrierRelease(p rt.Proc, m wire.LrcBarrierRelease) {
	n.lrcAbsorb(p, m.VT, m.Notices)
	n.lrc.AdvanceFloor(m.VT)
	n.barrierDepart(p, int(m.Barrier), m.Tree, m.Subtree, func(sub []uint8) wire.Message {
		return wire.LrcBarrierRelease{
			Barrier: m.Barrier, Tree: true, Subtree: sub, VT: m.VT, Notices: m.Notices,
		}
	})
}
