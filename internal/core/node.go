package core

import (
	"fmt"
	"slices"

	"munin/internal/adapt"
	"munin/internal/diffenc"
	"munin/internal/directory"
	"munin/internal/duq"
	"munin/internal/lrc"
	"munin/internal/network"
	"munin/internal/obs"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// pendClass distinguishes outstanding request types so replies route to
// the right waiter without wire-level request IDs: per-object operations
// are serialized by the entry semaphore, so (class, id) is unique.
type pendClass uint8

const (
	pendRead pendClass = iota
	pendOwn
	pendMigrate
	pendReduce
	pendDir
	pendLock
	// pendLrc keys lazy-engine RPCs by a per-node token instead of an
	// address: the batched acquire refresh is not per-object serialized.
	pendLrc
)

type pendKey struct {
	class pendClass
	id    uint64
}

// collector gathers a fixed number of replies (copyset queries,
// invalidation acks, update acks) before completing its future.
type collector struct {
	need int
	got  int
	fut  rt.Future
	// holders accumulates, per object address, the nodes that reported a
	// copy (broadcast copyset determination); nil until the first report.
	holders map[vm.Addr]directory.Copyset
	// lookup lists the entries a home-directed determination asks about,
	// grouped by home; at[h] is where home h's entries start.
	lookup []*directory.Entry
	at     []int
}

// newCollector registers a reply collector expecting need replies,
// reusing one a finished wait gave back (recycleCollector).
func (n *Node) newCollector(key pendKey, need int, name string) *collector {
	if _, ok := n.collectors[key]; ok {
		panic(fmt.Sprintf("core: node %d duplicate collector %v", n.id, key))
	}
	var c *collector
	if k := len(n.freeCollectors); k > 0 {
		c = n.freeCollectors[k-1]
		n.freeCollectors = n.freeCollectors[:k-1]
	} else {
		c = &collector{}
	}
	c.need, c.got = need, 0
	c.fut = n.future(rt.NameOfString("collect[n%d %s]", n.id, name))
	n.collectors[key] = c
	return c
}

// recycleCollector gives back a collector once its waiter has returned,
// with its future and its emptied holders map.
func (n *Node) recycleCollector(c *collector) {
	n.recycle(c.fut)
	clear(c.holders)
	c.fut, c.lookup, c.at = nil, nil, nil
	n.freeCollectors = append(n.freeCollectors, c)
}

func (c *collector) add() {
	c.got++
	if c.got == c.need {
		c.fut.Complete(c.holders)
	}
}

// Node is one processor of the simulated machine: its address space,
// directories, delayed update queue and dispatcher.
type Node struct {
	sys   *System
	id    int
	space *vm.Space
	dir   *directory.Table
	synch *directory.SynchTable
	duq   *duq.Queue

	procs []rt.Proc // every process hosted here, for time accounting

	pending    map[pendKey]rt.Future
	collectors map[pendKey]*collector
	dirFetch   map[vm.Addr]rt.Future

	// freeFutures and freeCollectors hold what finished waits gave back
	// (recycle, recycleCollector), for the next rpc or collector.
	freeFutures    []rt.Future
	freeCollectors []*collector
	freeLrcScratch []*lrcScratch
	// replies is every reply this node has made, held or free, and
	// freeReplies the free ones: a reply is held from the dispatcher's
	// complete until its waiter is done with it (done). What a stopped
	// machine left held goes back at teardown (dropReplies).
	replies     []*reply
	freeReplies []*reply

	// reader decodes the dispatcher's frames in place; held is
	// serveCopysetQuery's reply list. Only the dispatcher touches either.
	reader wire.Reader
	held   []vm.Addr
	// diffSets is serveLrcDiff's response list, the dispatcher's too.
	diffSets []wire.LrcDiffSet

	// flushSem serializes DUQ flushes (one release in progress per node).
	flushSem rt.Semaphore
	// flushing is set while a flushEntries has updates to send; owed
	// holds the entries whose homes' notifies arrived meanwhile, promised
	// once those updates are out (serveCopysetNotify).
	flushing bool
	owed     []*directory.Entry
	// release is the releases' reusable working set, also under flushSem.
	release releaseScratch

	// barrierWait holds local threads blocked at each barrier;
	// barrierFrom tracks, at the barrier's owner, which nodes the
	// remote arrivals came from.
	barrierWait map[int][]rt.Future
	barrierFrom map[int][]int
	// lockWait holds local threads queued behind a local holder, and
	// lockPend marks an in-flight remote acquire.
	lockWait map[int][]rt.Future
	lockPend map[int]bool

	// Stats
	ReadMisses    int
	WriteMisses   int
	Twins         int
	Flushes       int
	UpdatesSent   int
	UpdatesApply  int
	Invalidations int
	// StaleUpdates counts updates ignored because the exact-copyset
	// algorithm's home-tracked copyset overshot (a node had dropped its
	// copy without the home learning of it).
	StaleUpdates int
	// PendingQueued and PendingCoalesced count pending-update-queue
	// activity (Config.PendingUpdates).
	PendingQueued    int
	PendingCoalesced int

	// puq is the pending update queue; nil unless Config.PendingUpdates.
	// puqSem serializes drains against the node's other threads.
	puq    *pendingUpdates
	puqSem rt.Semaphore

	// adaptEng is the adaptive protocol engine; nil unless
	// Config.Adaptive. annotWait holds threads blocked on an urgent
	// annotation switch, keyed by group base; locksHeld counts locks
	// currently held by this node's threads (the lock-coupled-access
	// profiling signal).
	adaptEng  *adapt.Engine
	annotWait map[vm.Addr]rt.Future
	locksHeld int

	// lrc is the lazy release consistency engine; nil unless
	// Config.Lazy. lrcToken numbers lazy RPCs so concurrent requests
	// from different local threads route their responses independently.
	// lockSuccVT remembers, per lock, the queued successor's vector
	// timestamp, from its request, so the eventual grant carries exactly
	// the notices it lacks. barrierVTs/barrierFloors/barrierNodes
	// accumulate, at a barrier master, the current episode's arrival
	// timestamps, merged applied floors and contributor set; lrcLastGC is
	// the floor of the last garbage-collection broadcast.
	lrc           *lrc.Engine
	lrcToken      uint32
	lockSuccVT    map[int][]uint32
	barrierVTs    map[int][][]uint32
	barrierFloors map[int][]uint32
	barrierNodes  map[int]map[int]bool
	lrcLastGC     []uint32
	// AdaptApplied counts annotation switches applied at this node.
	AdaptApplied int

	// obs is the node's observability recorder; nil unless Config.Metrics
	// or Config.TraceEvents enabled it. Every hook in the protocol code
	// is guarded by this single pointer check, so the disabled path costs
	// one comparison. The recorder needs no locking: it is only touched
	// under the node monitor, like the stat counters above.
	obs *obs.Recorder

	// fetchStash buffers updates that arrive for an object while a local
	// fault on it is mid-flight (the entry is not yet valid but its
	// semaphore is held). They apply — in arrival order, idempotently —
	// the moment the fetched copy installs, so a copy acquired
	// concurrently with a remote release still observes that release's
	// writes. Leftovers die with the fault that stashed them.
	fetchStash map[vm.Addr][]wire.UpdateEntry

	// deferredReads holds read requests parked behind in-flight flush
	// updates (directory.Entry.AwaitFrom); they re-dispatch when the
	// promised updates arrive or the copy drops.
	deferredReads map[vm.Addr][]wire.ReadReq

	// deferredChase holds request chases that dead-ended at this node as
	// the object's home (the hint pointed back at the requester, meaning
	// the transfer that displaced the requester is still in flight); they
	// re-dispatch when the home's ownership knowledge refreshes.
	deferredChase map[vm.Addr][]wire.Message

	// twinFree holds retired twin buffers by size, for delayedWrite to
	// snapshot into again. A twin is read only by the diff encoder and by
	// serveLrcFetch's base copy, both of which copy what they keep, and
	// written only by a merge (mergeDiff, lrcApply's full record) while it
	// is the entry's twin, so a retired buffer has no other reference.
	twinFree map[int][][]byte

	// outboxes holds each local proc's outbox; nil unless Config.Batching
	// (which is what makes n.send a plain transport send). Only touched
	// under the node monitor — see outbox.go.
	outboxes map[rt.Proc]*outbox
}

// stashedImage reconstructs the object's current content from the fetch
// stash, if a full image is parked there: the latest full, with any
// later diffs applied on top. Returns nil when the stash holds no full
// base. The stash itself is left intact — the local fault that owns it
// still drains it after its install (idempotently).
func (n *Node) stashedImage(addr vm.Addr) []byte {
	st := n.fetchStash[addr]
	last := -1
	for i, u := range st {
		if u.Full != nil {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	data := append([]byte(nil), st[last].Full...)
	for _, u := range st[last+1:] {
		if _, err := diffenc.Decode(data, u.Diff); err != nil {
			fail(n.id, addr, "stash serve", err.Error())
		}
	}
	return data
}

// redispatchReads re-serves read requests that were deferred behind
// in-flight updates or owed promises for e, once nothing is awaited
// anymore.
func (n *Node) redispatchReads(p rt.Proc, e *directory.Entry) {
	rs := n.deferredReads[e.Start]
	if len(rs) == 0 {
		return
	}
	delete(n.deferredReads, e.Start)
	for _, m := range rs {
		n.answerRead(p, e, m)
	}
}

// redispatchChase re-dispatches request chases that parked at this home
// node awaiting fresher ownership knowledge.
func (n *Node) redispatchChase(p rt.Proc, e *directory.Entry) {
	ms := n.deferredChase[e.Start]
	if len(ms) == 0 {
		return
	}
	delete(n.deferredChase, e.Start)
	for _, m := range ms {
		switch mm := m.(type) {
		case wire.ReadReq:
			n.answerRead(p, e, mm)
		case wire.OwnReq:
			n.serveOwn(p, mm)
		case wire.MigrateReq:
			n.serveMigrate(p, mm)
		default:
			panic(fmt.Sprintf("core: node %d cannot re-dispatch deferred %T", n.id, m))
		}
	}
}

// serveOwnNotify records an ownership transfer at the object's home.
func (n *Node) serveOwnNotify(p rt.Proc, m wire.OwnNotify) {
	e, ok := n.dir.Lookup(m.Addr)
	if !ok {
		return
	}
	// A notify naming this node trails a transfer here that a later
	// request already took onward: keep the newer hint.
	if !e.Owned && int(m.Owner) != n.id {
		e.ProbOwner = int(m.Owner)
	}
	n.redispatchChase(p, e)
}

func newNode(s *System, id int) *Node {
	n := &Node{
		sys:           s,
		id:            id,
		space:         vm.NewSpace(s.cfg.PageSize),
		dir:           directory.NewTable(s.cfg.PageSize),
		synch:         directory.NewSynchTable(),
		duq:           duq.New(),
		pending:       make(map[pendKey]rt.Future),
		collectors:    make(map[pendKey]*collector),
		dirFetch:      make(map[vm.Addr]rt.Future),
		flushSem:      s.tr.NewSemaphore(id, rt.Named(fmt.Sprintf("flush[%d]", id)), 1),
		barrierWait:   make(map[int][]rt.Future),
		barrierFrom:   make(map[int][]int),
		lockWait:      make(map[int][]rt.Future),
		lockPend:      make(map[int]bool),
		fetchStash:    make(map[vm.Addr][]wire.UpdateEntry),
		deferredReads: make(map[vm.Addr][]wire.ReadReq),
		deferredChase: make(map[vm.Addr][]wire.Message),
		twinFree:      make(map[int][][]byte),
	}
	if s.cfg.Batching {
		n.outboxes = make(map[rt.Proc]*outbox)
	}
	if s.cfg.PendingUpdates {
		n.puq = newPendingUpdates()
		n.puqSem = s.tr.NewSemaphore(id, rt.Named(fmt.Sprintf("puq[%d]", id)), 1)
	}
	if s.cfg.Lazy {
		n.lrc = lrc.New(id, s.cfg.Processors)
		n.lockSuccVT = make(map[int][]uint32)
		n.barrierVTs = make(map[int][][]uint32)
		n.barrierFloors = make(map[int][]uint32)
		n.barrierNodes = make(map[int]map[int]bool)
		n.lrcLastGC = make([]uint32, s.cfg.Processors)
	}
	if s.cfg.Metrics || s.cfg.TraceEvents > 0 {
		n.obs = obs.NewRecorder(id, &s.obsSeq, s.cfg.Metrics, s.cfg.TraceEvents)
	}
	if s.cfg.Adaptive {
		n.adaptEng = adapt.New(adapt.Config{Self: id, Nodes: s.cfg.Processors})
		n.annotWait = make(map[vm.Addr]rt.Future)
	}
	n.space.SetHandler(vm.FaultHandlerFunc(func(ctx any, base vm.Addr, write bool) {
		t, ok := ctx.(*Thread)
		if !ok {
			panic(fmt.Sprintf("core: fault with non-thread context %T", ctx))
		}
		n.handleFault(t, base, write)
	}))
	return n
}

// ID returns the node's index.
func (n *Node) ID() int { return n.id }

// Space exposes the node's address space (tests).
func (n *Node) Space() *vm.Space { return n.space }

// Dir exposes the node's data object directory (tests, trace tool).
func (n *Node) Dir() *directory.Table { return n.dir }

// startDispatcher spawns the node's Munin root thread: an event loop that
// serves remote requests. It never blocks on remote state — requests it
// cannot answer are forwarded — so request chains cannot deadlock.
//
// Each dispatched envelope is one operation: its replies leave when the
// handler returns (see outbox.go).
func (n *Node) startDispatcher() {
	n.sys.tr.Spawn(n.id, fmt.Sprintf("munin-root@n%d", n.id), func(p rt.Proc) {
		n.procs = append(n.procs, p)
		p.SetKind(rt.KindSystem)
		// A dispatcher unwound in the middle of a dispatch (the machine
		// stopped or failed while a handler was at a yield point) still
		// holds that envelope's frame, and its outbox the frames it
		// queued; both are no-ops otherwise.
		var env network.Envelope
		defer func() { env.Release(); n.putPayloads(p) }()
		for {
			env = n.sys.tr.RecvFrame(p, n.id)
			p.Advance(n.sys.cost.RequestHandlerCPU)
			n.dispatch(p, env.Src, env.Frame(), &env)
			// The operation ends before the frame goes back: nothing a
			// handler queued outlives the frame it answers.
			n.flush(p)
			// Everything a handler retains past this point was re-owned in
			// dispatch, so the frame goes back now — unless a reply took
			// the buffer over (complete), which leaves nothing to release.
			env.Release()
		}
	})
}

// dispatch handles one incoming frame from node src on the dispatcher.
// env is the envelope whose whole frame this is, nil for a batch's rider.
//
// Zero-copy contract: a request is decoded in place by the node's Reader
// into a typed value whose byte payloads are views into the frame and
// whose lists are the Reader's, both valid until the frame is released
// (after dispatch returns) or the next frame — a batch's next rider — is
// decoded. Handlers that consume a request synchronously (an update
// applied in place, a barrier subtree walked during the serve) need
// nothing; anything retained past dispatch — an update stashed or queued
// for later, a timestamp kept for a lock's successor — is re-owned first
// (wire.OwnEntry, a copy). A reply that completes a future is not decoded
// for its waiter here: the dispatcher reads only the pending key from it
// and completes the future with the frame itself — the envelope's buffer,
// which the future then owns, or a pooled copy of a batch's rider. The
// waiter decodes the frame with a Reader of its own, after the
// dispatcher has moved on (see reply).
func (n *Node) dispatch(p rt.Proc, src int, frame []byte, env *network.Envelope) {
	rd := &n.reader
	switch wire.FrameKind(frame) {
	case wire.KindBatch:
		// Unpack a batching envelope: the riders are handled in exactly
		// the order the sender queued them, so per-destination FIFO (and
		// with it the updates-before-grant order release consistency
		// needs) is preserved. The dispatcher loop charged the receive
		// dispatch cost for the envelope; each further rider pays its own.
		first := true
		// A batch whose framing is corrupt (a rider cut short, a batch
		// inside it) is refused before any rider runs.
		err := wire.ForEachRider(frame, func(rider []byte) {
			if !first {
				p.Advance(n.sys.cost.RequestHandlerCPU)
			}
			first = false
			n.dispatch(p, src, rider, nil)
		})
		if err != nil {
			panic(fmt.Sprintf("core: node %d received a corrupt batch from node %d: %v", n.id, src, err))
		}
	case wire.KindDirReq:
		n.serveDirReq(p, src, must(rd.DirReq(frame)))
	case wire.KindReadReq:
		n.serveRead(p, must(rd.ReadReq(frame)))
	case wire.KindOwnReq:
		n.serveOwn(p, must(rd.OwnReq(frame)))
	case wire.KindInvalidate:
		n.serveInvalidate(p, src, must(rd.Invalidate(frame)))
	case wire.KindMigrateReq:
		n.serveMigrate(p, must(rd.MigrateReq(frame)))
	case wire.KindCopysetQuery:
		n.serveCopysetQuery(p, must(rd.CopysetQuery(frame)))
	case wire.KindUpdateBatch:
		n.serveUpdateBatch(p, src, must(rd.UpdateBatch(frame)))
	case wire.KindReduceReq:
		n.serveReduce(p, must(rd.ReduceReq(frame)))
	case wire.KindPhaseChange:
		n.servePhaseChange(must(rd.PhaseChange(frame)))
	case wire.KindChangeAnnot:
		n.serveChangeAnnot(p, must(rd.ChangeAnnot(frame)))
	case wire.KindCopysetLookup:
		n.serveCopysetLookup(p, must(rd.CopysetLookup(frame)))
	case wire.KindCopysetNotify:
		n.serveCopysetNotify(p, src, must(rd.CopysetNotify(frame)))
	case wire.KindOwnNotify:
		n.serveOwnNotify(p, must(rd.OwnNotify(frame)))
	case wire.KindAdaptPropose:
		n.serveAdaptPropose(p, must(rd.AdaptPropose(frame)))
	case wire.KindAdaptCommit:
		n.serveAdaptCommit(p, must(rd.AdaptCommit(frame)))
	case wire.KindLockAcq:
		m := must(rd.LockAcq(frame))
		n.serveLockRequest(p, frame, int(m.Lock), int(m.Requester), nil)
	case wire.KindBarrierArrive:
		n.serveBarrierArrive(p, must(rd.BarrierArrive(frame)))
	case wire.KindBarrierRelease:
		n.serveBarrierRelease(p, must(rd.BarrierRelease(frame)))

	case wire.KindLrcLockAcq:
		m := must(rd.LrcLockAcq(frame))
		n.serveLockRequest(p, frame, int(m.Lock), int(m.Requester), m.VT)
	case wire.KindLrcBarrierArrive:
		n.serveLrcBarrierArrive(p, must(rd.LrcBarrierArrive(frame)))
	case wire.KindLrcBarrierRelease:
		n.serveLrcBarrierRelease(p, must(rd.LrcBarrierRelease(frame)))
	case wire.KindLrcDiffReq:
		n.serveLrcDiff(p, must(rd.LrcDiffReq(frame)))
	case wire.KindLrcFetchReq:
		n.serveLrcFetch(p, must(rd.LrcFetchReq(frame)))
	case wire.KindLrcGC:
		n.serveLrcGC(must(rd.LrcGC(frame)))

	case wire.KindReadReply:
		n.complete(pendKey{pendRead, uint64(must(rd.ReadReply(frame)).Addr)}, frame, env)
	case wire.KindOwnReply:
		n.complete(pendKey{pendOwn, uint64(must(rd.OwnReply(frame)).Addr)}, frame, env)
	case wire.KindMigrateReply:
		n.complete(pendKey{pendMigrate, uint64(must(rd.MigrateReply(frame)).Addr)}, frame, env)
	case wire.KindReduceReply:
		n.complete(pendKey{pendReduce, uint64(must(rd.ReduceReply(frame)).Addr)}, frame, env)
	case wire.KindLockGrant:
		n.complete(pendKey{pendLock, uint64(must(rd.LockGrant(frame)).Lock)}, frame, env)
	case wire.KindLrcLockGrant:
		n.complete(pendKey{pendLock, uint64(must(rd.LrcLockGrant(frame)).Lock)}, frame, env)
	case wire.KindLrcDiffResp:
		n.complete(pendKey{pendLrc, uint64(must(rd.LrcDiffResp(frame)).Token)}, frame, env)
	case wire.KindLrcFetchResp:
		n.complete(pendKey{pendLrc, uint64(must(rd.LrcFetchResp(frame)).Token)}, frame, env)
	case wire.KindDirReply:
		n.completeDirFetch(must(rd.DirReply(frame)))
	case wire.KindCopysetReply:
		n.collectCopyset(src, must(rd.CopysetReply(frame)))
	case wire.KindCopysetInfo:
		n.collectCopysetInfo(src, must(rd.CopysetInfo(frame)))
	case wire.KindInvalidateAck:
		n.collect(pendKey{pendOwn, uint64(must(rd.InvalidateAck(frame)).Addr)})
	case wire.KindUpdateAck:
		must(rd.UpdateAck(frame))
		n.collect(pendKey{pendRead, 0}) // flush-ack collector key
	default:
		panic(fmt.Sprintf("core: node %d cannot dispatch %v from node %d", n.id, wire.FrameKind(frame), src))
	}
}

// must returns m, or panics — failing the run — when the frame it was
// decoded from did not decode: the sender's encoder is broken.
func must[T any](m T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("core: received a frame that does not decode: %v", err))
	}
	return m
}

// A reply is a response frame handed to the thread that waited for it,
// with the Reader that thread decodes it through: the dispatcher's own
// Reader is reused at its next frame, so a waiter that runs later, or
// decodes while another reply of its own is still in use, never shares
// one. A reply's values are views into its frame and lists in its
// Reader, valid until done gives it back; a caller that keeps any of it
// longer re-owns that part first, and data that becomes a page is copied
// into the page (installObject), the one copy a read pays.
type reply struct {
	bp *[]byte
	rd wire.Reader
}

// frame returns the reply's encoded message.
func (r *reply) frame() []byte { return *r.bp }

// newReply wraps the reply frame bp, which it takes over, in a reply off
// the node's free list.
func (n *Node) newReply(bp *[]byte) *reply {
	k := len(n.freeReplies)
	if k == 0 {
		r := &reply{bp: bp}
		n.replies = append(n.replies, r)
		return r
	}
	r := n.freeReplies[k-1]
	n.freeReplies = n.freeReplies[:k-1]
	r.bp = bp
	return r
}

// done gives back a reply its waiter has finished with: the frame to the
// pool, the reply to the free list.
func (n *Node) done(r *reply) {
	r.rd.Done()
	wire.PutBuf(r.bp)
	r.bp = nil
	n.freeReplies = append(n.freeReplies, r)
}

// dropReplies returns the frames of replies still held once the machine
// has stopped: completed into a future whose waiter was unwound before it
// woke, or taken by a waiter unwound before it was done. No proc runs any
// more, so nothing else can touch them.
func (n *Node) dropReplies() {
	for _, r := range n.replies {
		if r.bp != nil {
			wire.PutBuf(r.bp)
			r.bp = nil
		}
	}
}

// rpc registers a future under key, sends msg, and blocks t until the
// reply completes it. The caller decodes the reply and gives it back
// (done).
func (n *Node) rpc(t *Thread, dst int, key pendKey, msg wire.Message) *reply {
	f := n.expect(key, wire.KindOf(msg))
	n.send(t.proc, dst, msg)
	r := n.awaitReply(t.proc, f)
	n.recycle(f)
	return r
}

// awaitReply waits on f, an rpc's future, for its reply.
func (n *Node) awaitReply(p rt.Proc, f rt.Future) *reply { return n.await(p, f).(*reply) }

// expect registers the future a reply of the given request kind completes
// under key.
func (n *Node) expect(key pendKey, k wire.Kind) rt.Future {
	if _, ok := n.pending[key]; ok {
		panic(fmt.Sprintf("core: node %d duplicate outstanding request %v", n.id, key))
	}
	f := n.future(rt.NameOfString("rpc[n%d %s]", n.id, k.String()))
	n.pending[key] = f
	return f
}

// future returns an incomplete future named name, reusing one a finished
// wait gave back (recycle).
func (n *Node) future(name rt.Name) rt.Future {
	k := len(n.freeFutures)
	if k == 0 {
		return n.sys.tr.NewFuture(n.id, name)
	}
	f := n.freeFutures[k-1]
	n.freeFutures = n.freeFutures[:k-1]
	f.Reset(name)
	return f
}

// recycle gives back a future made by future once its one waiter has
// returned from it; nothing else may hold it.
func (n *Node) recycle(f rt.Future) { n.freeFutures = append(n.freeFutures, f) }

// complete resolves the pending request under key with the reply in
// frame, whose waiter owns the buffer from then on: the envelope's own,
// which the dispatcher then no longer releases, or for a batch's rider a
// pooled copy, so that the batch still goes back after dispatch.
func (n *Node) complete(key pendKey, frame []byte, env *network.Envelope) {
	f := n.resolve(key)
	var bp *[]byte
	if env != nil {
		bp, env.Buf = env.Buf, nil
	} else {
		bp = wire.GetBufN(len(frame))
		*bp = append(*bp, frame...)
	}
	f.Complete(n.newReply(bp))
}

// resolve returns the future of the pending request under key, which
// its reply is about to complete, and forgets the request.
func (n *Node) resolve(key pendKey) rt.Future {
	f, ok := n.pending[key]
	if !ok {
		panic(fmt.Sprintf("core: node %d unexpected reply %v", n.id, key))
	}
	delete(n.pending, key)
	return f
}

// collect counts one anonymous reply toward the collector under key.
func (n *Node) collect(key pendKey) {
	c, ok := n.collectors[key]
	if !ok {
		panic(fmt.Sprintf("core: node %d unexpected ack %v", n.id, key))
	}
	c.add()
	if c.got == c.need {
		delete(n.collectors, key)
	}
}

// collectCopysetInfo caches home src's exact-copyset reply in the entries
// asked about. It does so here, not in the waiting flush: a notify the
// home sent after this reply must add to the answer, not be overwritten
// by it.
func (n *Node) collectCopysetInfo(src int, m wire.CopysetInfo) {
	key := pendKey{pendDir, 0}
	c, ok := n.collectors[key]
	if !ok {
		panic(fmt.Sprintf("core: node %d unexpected copyset info", n.id))
	}
	for i, cs := range m.Sets {
		e := c.lookup[c.at[src]+i]
		e.Copyset, e.CopysetKnown = cs.Remove(n.id), true
	}
	c.add()
	if c.got == c.need {
		delete(n.collectors, key)
	}
}

// collectCopyset merges a copyset reply from src.
func (n *Node) collectCopyset(src int, m wire.CopysetReply) {
	key := pendKey{pendDir, 0}
	c, ok := n.collectors[key]
	if !ok {
		panic(fmt.Sprintf("core: node %d unexpected copyset reply", n.id))
	}
	if c.holders == nil && len(m.Addrs) > 0 {
		c.holders = make(map[vm.Addr]directory.Copyset)
	}
	for _, a := range m.Addrs {
		c.holders[a] = c.holders[a].Add(src)
	}
	c.add()
	if c.got == c.need {
		delete(n.collectors, key)
	}
}

// entry returns the directory entry describing addr, fetching it from the
// object's home node if this node has never seen the object (§3.2: "When
// Munin cannot find an object directory entry in the local hash table, it
// requests a copy from the object's home node"). Charges a directory
// lookup.
func (n *Node) entry(t *Thread, addr vm.Addr) *directory.Entry {
	t.proc.Advance(n.sys.cost.DirLookup)
	if e, ok := n.dir.Lookup(addr); ok {
		return e
	}
	home := n.homeFor(addr)
	if n.id == home {
		fail(n.id, addr, "directory lookup", "address is not part of any declared shared object")
	}
	// Coalesce concurrent fetches of the same entry.
	base := addr - vm.Addr(uint32(addr)%uint32(n.sys.cfg.PageSize))
	if f, ok := n.dirFetch[base]; ok {
		n.await(t.proc, f)
	} else {
		f := n.sys.tr.NewFuture(n.id, rt.NameOf("dirfetch[n%d %#x]", n.id, uint64(base)))
		n.dirFetch[base] = f
		n.send(t.proc, home, wire.DirReq{Addr: addr})
		n.await(t.proc, f)
		delete(n.dirFetch, base)
	}
	e, ok := n.dir.Lookup(addr)
	if !ok {
		fail(n.id, addr, "directory fetch", "home node does not describe this address")
	}
	return e
}

// homeFor returns the node a blind request for addr should be sent to —
// the node guaranteed to describe the address if any node does. Under
// the root policy that is node 0 (home for all statically allocated
// objects); under the striped policy it is the address's stripe node,
// which holds either the object's home entry or a catalog entry for a
// later page of a multi-page object. Computed locally: no node-0 relay.
func (n *Node) homeFor(addr vm.Addr) int {
	if n.sys.cfg.HomePolicy == HomeStriped {
		return stripeHome(addr, n.sys.cfg.PageSize, n.sys.cfg.Processors)
	}
	return 0
}

// serveDirReq answers a directory fetch from the home node's table. Only
// a node that homeFor can name — an object's home, or a stripe node
// holding its catalog entry — serves these.
func (n *Node) serveDirReq(p rt.Proc, src int, m wire.DirReq) {
	p.Advance(n.sys.cost.DirLookup)
	e, ok := n.dir.Lookup(m.Addr)
	if !ok {
		n.send(p, src, wire.DirReply{Found: false})
		return
	}
	n.send(p, src, wire.DirReply{
		Found: true,
		Start: e.Start,
		Size:  uint32(e.Size),
		Annot: uint8(e.Annot),
		Home:  uint8(e.Home),
		Owner: uint8(e.ProbOwner),
		Group: groupOf(e),
		Epoch: e.Epoch,
	})
}

// completeDirFetch installs a fetched directory entry and wakes waiters.
func (n *Node) completeDirFetch(m wire.DirReply) {
	if !m.Found {
		fail(n.id, 0, "directory fetch", "home node reported no such object")
	}
	if _, ok := n.dir.Lookup(m.Start); !ok {
		annot := protocol.Annotation(m.Annot)
		n.dir.Insert(&directory.Entry{
			Start:     m.Start,
			Size:      int(m.Size),
			Annot:     annot,
			Params:    annot.Params(),
			Home:      int(m.Home),
			Group:     m.Group,
			Epoch:     m.Epoch,
			ProbOwner: int(m.Owner),
			Synchq:    -1,
			Sem:       n.sys.tr.NewSemaphore(n.id, rt.NameOf("entry[n%d %#x]", n.id, uint64(m.Start)), 1),
		})
	}
	// Wake every fetch waiting on any page the object covers: the fault
	// may have been on a later page of a multi-page (SingleObject)
	// variable than the entry's start.
	for base := n.space.PageBase(m.Start); base < m.Start+vm.Addr(m.Size); base += vm.Addr(n.sys.cfg.PageSize) {
		if f, ok := n.dirFetch[base]; ok && !f.Done() {
			f.Complete(nil)
		}
	}
}

// pagesOf returns the base of the first page covering an entry and the
// address its last page ends at; callers step by the page size.
func (n *Node) pagesOf(e *directory.Entry) (first, end vm.Addr) {
	return n.space.PageBase(e.Start), e.End()
}

// readObject copies the entry's bytes out of the local pages. The local
// copy must be valid.
func (n *Node) readObject(e *directory.Entry) []byte {
	out := make([]byte, e.Size)
	n.copyObject(out, e)
	return out
}

// copyObject is readObject into a buffer of the entry's size.
func (n *Node) copyObject(out []byte, e *directory.Entry) {
	off := 0
	for base, end := n.pagesOf(e); base < end; base += vm.Addr(n.sys.cfg.PageSize) {
		pg, ok := n.space.Lookup(base)
		if !ok {
			panic(fmt.Sprintf("core: node %d reading unmapped page %#x of %v", n.id, base, e))
		}
		start := 0
		if base < e.Start {
			start = int(e.Start - base)
		}
		end := n.sys.cfg.PageSize
		if base+vm.Addr(n.sys.cfg.PageSize) > e.End() {
			end = int(e.End() - base)
		}
		off += copy(out[off:], pg.Data[start:end])
	}
}

// viewObject returns the entry's bytes, and whether they are the page's
// own storage — the object lies within one page — or a copy. A view in
// place aliases page storage: use it before the next yield and never
// retain it; writing through it writes the object.
func (n *Node) viewObject(e *directory.Entry) (data []byte, inPlace bool) {
	base := n.space.PageBase(e.Start)
	if e.End()-base > vm.Addr(n.sys.cfg.PageSize) {
		return n.readObject(e), false
	}
	pg, ok := n.space.Lookup(base)
	if !ok {
		panic(fmt.Sprintf("core: node %d reading unmapped page %#x of %v", n.id, base, e))
	}
	return pg.Data[e.Start-base : e.End()-base], true
}

// snapshotTwin returns a copy of the entry's current bytes in a buffer off
// the twin free list, or a fresh one when the list has none of that size.
func (n *Node) snapshotTwin(e *directory.Entry) []byte {
	var buf []byte
	if free := n.twinFree[e.Size]; len(free) > 0 {
		buf = free[len(free)-1]
		n.twinFree[e.Size] = free[:len(free)-1]
	} else {
		buf = make([]byte, e.Size)
	}
	n.copyObject(buf, e)
	return buf
}

// recycleTwin puts a twin-sized buffer nothing references any more on the
// free list.
func (n *Node) recycleTwin(buf []byte) {
	n.twinFree[len(buf)] = append(n.twinFree[len(buf)], buf)
}

// retireTwin discards the entry's twin, if it has one, and recycles the
// buffer: the one way either engine drops a twin.
func (n *Node) retireTwin(e *directory.Entry) {
	if e.Twin != nil {
		n.recycleTwin(e.Twin)
		duq.DropTwin(e)
	}
}

// installObject copies data in as the entry's local copy with the given
// protection, allocating pages as needed: a page the object fills whole
// is a copy of its bytes, with nothing zeroed first.
func (n *Node) installObject(p rt.Proc, e *directory.Entry, data []byte, prot vm.Prot) {
	if len(data) != e.Size {
		panic(fmt.Sprintf("core: installing %d bytes into %v", len(data), e))
	}
	ps := n.sys.cfg.PageSize
	off := 0
	for base, last := n.pagesOf(e); base < last; base += vm.Addr(ps) {
		start, end := 0, ps
		if base < e.Start {
			start = int(e.Start - base)
		}
		if base+vm.Addr(ps) > e.End() {
			end = int(e.End() - base)
		}
		seg := data[off : off+end-start]
		off += len(seg)
		if pg, ok := n.space.Lookup(base); ok {
			pg.Prot = prot
			copy(pg.Data[start:end], seg)
		} else if end-start == ps {
			n.space.Map(base, slices.Clone(seg), prot)
		} else {
			copy(n.space.Map(base, make([]byte, ps), prot).Data[start:end], seg)
		}
		advance(p, n.sys.cost.PageMapOp)
	}
	e.Valid = true
	e.Writable = prot == vm.ProtReadWrite
}

// protectObject changes the protection of every page backing the entry,
// and charges for it afterwards: the charge yields, and a thread that runs
// meanwhile must find the page tables and e.Writable agreeing.
func (n *Node) protectObject(p rt.Proc, e *directory.Entry, prot vm.Prot) {
	n.chargePageOps(p, n.setProtection(e, prot))
}

// setProtection is protectObject without the charge — it does not yield —
// and returns the number of pages chargePageOps is owed.
func (n *Node) setProtection(e *directory.Entry, prot vm.Prot) int {
	pages := 0
	for base, end := n.pagesOf(e); base < end; base += vm.Addr(n.sys.cfg.PageSize) {
		if _, ok := n.space.Lookup(base); ok {
			n.space.Protect(base, prot)
			pages++
		}
	}
	e.Writable = prot == vm.ProtReadWrite
	return pages
}

// chargePageOps charges pages page-table manipulations already made, one
// yield each; p may be nil outside a run.
func (n *Node) chargePageOps(p rt.Proc, pages int) {
	for ; pages > 0; pages-- {
		advance(p, n.sys.cost.PageMapOp)
	}
}

// dropObject unmaps the entry's pages and invalidates the local copy.
func (n *Node) dropObject(p rt.Proc, e *directory.Entry) {
	if n.lazy(e) {
		// Materialize pending diffs (the record store is the lazy
		// engine's propagation medium) and, at the home, fold the page
		// back into the backing so future base fetches stay current.
		n.lrcDrop(p, e)
	}
	// The copy dies in one monitor hold, and the page-table work is charged
	// after: a thread that runs during the charge must not find a valid
	// entry over unmapped pages.
	pages := 0
	for base, end := n.pagesOf(e); base < end; base += vm.Addr(n.sys.cfg.PageSize) {
		if _, ok := n.space.Lookup(base); ok {
			n.space.Unmap(base)
			pages++
		}
	}
	e.Valid = false
	e.Writable = false
	e.Modified = false
	n.retireTwin(e)
	n.duq.Remove(e)
	if n.puq != nil {
		// An unmap supersedes any queued updates: the next use refetches
		// current data.
		n.puq.drop(e.Start)
	}
	delete(n.fetchStash, e.Start)
	n.chargePageOps(p, pages)
	// Reads deferred behind in-flight updates cannot be served from a
	// dropped copy: route them onward instead.
	e.AwaitFrom = directory.Copyset{}
	n.redispatchReads(p, e)
	if e.PendingAnnot != nil {
		// A deferred annotation switch was waiting for this entry's next
		// flush, which will never come now that the copy is gone: apply
		// it to the (empty) entry immediately.
		n.applyAnnotationSwitch(p, e, *e.PendingAnnot)
	}
}

// handOff gives the local copy away to node to. Ownership and the hint
// commit before dropObject's charge yields, so a request or local fault
// during it finds the object gone, not an owner without data; chases
// parked at the home re-dispatch after the drop.
func (n *Node) handOff(p rt.Proc, e *directory.Entry, to int) {
	e.Owned = false
	e.ProbOwner = to
	home := e.Home == n.id
	if home {
		e.BackingStale = true
	}
	n.dropObject(p, e)
	if home {
		n.redispatchChase(p, e)
	}
}

// claim takes ownership with data as a read-write copy, committing after
// the install's charge: committed first, an own-req or migrate-req that
// arrives during that yield finds an owner with no copy yet (DESIGN.md).
func (n *Node) claim(p rt.Proc, e *directory.Entry, data []byte) {
	n.installObject(p, e, data, vm.ProtReadWrite)
	e.Owned = true
	e.ProbOwner = n.id
}

// currentData returns the entry's current contents for serving a request:
// the live local copy if valid, else the home backing if still fresh.
// Returns nil if this node cannot supply data.
func (n *Node) currentData(e *directory.Entry) []byte {
	if !n.servable(e) {
		return nil
	}
	out := make([]byte, e.Size)
	n.copyCurrent(out, e)
	return out
}

// servable reports whether currentData can supply the entry's contents.
func (n *Node) servable(e *directory.Entry) bool {
	return e.Valid || (e.Home == n.id && e.Backing != nil && !e.BackingStale)
}

// copyCurrent is currentData into a buffer of the entry's size; the entry
// must be servable.
func (n *Node) copyCurrent(out []byte, e *directory.Entry) {
	if e.Valid {
		n.copyObject(out, e)
	} else {
		copy(out, e.Backing)
	}
}
