package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"munin/internal/directory"
	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/obs"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
)

// MaxProcessors is the largest machine the runtime accepts. The paper's
// prototype ran on 16 workstations; the protocol code itself scales to
// the wire format's 8-bit node ids, so 256 is the hard ceiling (see
// network.MaxNodes). The scaling bench table sweeps up to this count.
const MaxProcessors = network.MaxNodes

// Home policies: how shared objects are assigned to directory home
// nodes at machine construction.
const (
	// HomeRoot places every object's home on node 0, as the prototype's
	// static linker did — the default, and the configuration the paper
	// tables are measured on.
	HomeRoot = "root"
	// HomeStriped stripes homes across the machine deterministically by
	// page index (an object lives at node pageIndex(Start) mod
	// Processors), so directory service load spreads instead of
	// concentrating on node 0 as the machine grows.
	HomeStriped = "striped"
)

// Config describes the simulated machine and runtime options.
type Config struct {
	// Processors is the number of nodes (1–MaxProcessors; the paper's
	// prototype was 16).
	Processors int
	// HomePolicy assigns shared objects to directory home nodes: "" or
	// HomeRoot pins every home to node 0 (the prototype's layout, and
	// bit-identical to the historical behavior); HomeStriped spreads
	// homes across nodes by page index.
	HomePolicy string
	// PageSize overrides the 8 KB default (tests only).
	PageSize int
	// Model is the cost model; zero value means model.Default().
	Model model.CostModel
	// Override, if non-nil, forces every data object to the given
	// annotation regardless of its declaration — the paper's Table 6
	// compares multi-protocol Munin against "only conventional" and
	// "only write-shared" configurations this way.
	Override *protocol.Annotation
	// ExactCopyset selects the improved copyset-determination algorithm
	// of §3.3 — "an improved algorithm that uses the owner node to
	// collect Copyset information" which the prototype devised but never
	// implemented: a writer asks each modified update-protocol object's
	// home for its tracked copyset instead of broadcasting to every node,
	// and keeps it; the home of such an object serves all of its reads and
	// tells the writers that keep its copyset about every new reader
	// (homeDirected). NewSystem turns it on for eager, non-adaptive runs on
	// the live transports (exactByDefault); on the simulator it stays the
	// ablation A4 opt-in, so the paper tables keep the prototype's
	// broadcast. Mutually exclusive with Adaptive.
	ExactCopyset bool
	// PendingUpdates enables the pending update queue of §6's future
	// work: incoming updates are buffered at the receiver and applied at
	// its next synchronization point (or on first touch), moving decode
	// work off the dispatcher and coalescing repeated full-object
	// updates. Release consistency is preserved: acquires drain the
	// queue before returning.
	PendingUpdates bool
	// BarrierTree releases barriers down a fan-out tree instead of the
	// owner unicasting one release per arrival — the "barrier trees and
	// other more scalable schemes" §3.4 envisions for larger systems
	// (ablation A5). BarrierFanout sets the tree arity (default 4).
	BarrierTree   bool
	BarrierFanout int
	// Adaptive enables the adaptive protocol engine (internal/adapt):
	// every node profiles the access pattern of every shared object and
	// switches objects' annotations online when the observed pattern
	// contradicts the declared one — §6's "detecting the access pattern
	// at runtime" future work. Mis-annotations that would otherwise be
	// runtime errors (writing read-only data, Fetch-and-Φ on a
	// non-reduction object, stable-sharing violations) become recovery
	// signals instead of aborts.
	Adaptive bool
	// Lazy selects the lazy release consistency engine (internal/lrc)
	// for the DUQ-buffered multiple-writer protocols (write_shared,
	// producer_consumer): releases close intervals instead of flushing,
	// write notices ride lock grants and barrier releases, and diffs are
	// created and fetched on demand at acquires. Every other annotation
	// keeps its eager machinery. Mutually exclusive with Adaptive (an
	// online annotation switch would change an object's engine
	// membership mid-interval; see DESIGN.md).
	Lazy bool
	// Batching coalesces the messages one protocol operation sends to
	// the same destination — a release flush's update plus the lock
	// grant behind it, a barrier master's updates plus its releases, a
	// lazy release plus the GC broadcast, a dispatcher's replies to one
	// envelope's riders — into single wire.Batch envelopes: fewer
	// transport sends, fewer wire headers, a cheaper per-rider send path
	// (model.CostModel.SendCPU). Off by default so the paper tables'
	// traffic shape is untouched; the wire bench table (munin-bench
	// -table wire) measures the difference. See outbox.go.
	Batching bool
	// AwaitUpdateAcks makes a release block until every update it sent is
	// acknowledged (decoded and merged remotely). The prototype does not
	// block: it propagates updates at the release and relies on the
	// Ethernet's in-order delivery — any processor that later observes
	// the release (a barrier departure or a lock grant) necessarily
	// receives the earlier updates first, which is exactly the guarantee
	// release consistency requires. The simulated bus is globally FIFO,
	// so the same reasoning holds here. NewSystem turns acked flushes on
	// where that reasoning fails (needsUpdateAcks: the mux transport, and
	// batching on any live transport); they remain available elsewhere
	// for the Table 2 microbenchmark (whose Reply row times the
	// acknowledgement) and for stress tests.
	AwaitUpdateAcks bool
	// Trace, if non-nil, observes every delivered network message.
	Trace func(network.Envelope)
	// Metrics enables the observability subsystem's latency histograms
	// (acquire/release, barrier wait, fault resolution, diff fetch,
	// remote fetch-and-Φ) and the per-object hot-object profile
	// (internal/obs). Recording charges nothing to the cost model, so
	// metrics-on simulator runs are bit-identical to metrics-off runs.
	Metrics bool
	// TraceEvents > 0 enables structured protocol event tracing: every
	// node keeps a ring of that many typed events (fault, fetch,
	// invalidate, ownership transfer, interval close, notice apply,
	// batch flush, engine switch) with cause-linking ids, merged at run
	// end (System.ObsEvents) for JSONL or Chrome trace export.
	TraceEvents int
	// Transport carries the machine's messages and hosts its procs. Nil
	// means the deterministic simulator (rt.NewSim) — the transport the
	// paper's tables are measured on. rt.NewChan and rt.NewMux run the
	// same protocol code under real concurrency.
	Transport rt.Transport
}

// Decl is one entry of the shared data description table: a shared object
// the preprocessor/linker would have emitted (§3.1). Objects are created by
// the layout logic in the public munin package; Size is bytes (word
// multiple), Start is page-aligned for the first object of a variable.
type Decl struct {
	Name  string
	Start vm.Addr
	Size  int
	Annot protocol.Annotation
	Home  int
	// Group is the declared variable's base address — the objects a
	// page-split matrix was broken into share it, and the adaptive
	// engine profiles and switches protocols at this granularity. Zero
	// means the object is its own group.
	Group vm.Addr
	// Init is the object's initial contents (nil means zeros).
	Init []byte
	// Synchq associates the object with a lock (AssociateDataAndSynch);
	// -1 if none.
	Synchq int
}

// LockDecl declares a distributed lock.
type LockDecl struct {
	ID   int
	Home int
}

// BarrierDecl declares a barrier with its release threshold.
type BarrierDecl struct {
	ID       int
	Home     int
	Expected int
}

// System is one Munin machine: the nodes, the transport carrying their
// messages, and the shared-segment description.
type System struct {
	cfg      Config
	cost     model.CostModel
	tr       rt.Transport
	nodes    []*Node
	decls    []Decl
	locks    []LockDecl
	barriers []BarrierDecl

	// threadSeq numbers threads; liveUser counts running user threads
	// (Run stops when the last one returns). Atomic: on the live
	// transports threads spawn and finish concurrently.
	threadSeq atomic.Int64
	liveUser  atomic.Int64

	// lazyOnce runs the lazy engine's post-run reconciliation exactly
	// once, before the first state inspection (see finishLazy).
	lazyOnce sync.Once

	// obsSeq issues run-unique event ids for the observability
	// subsystem's cause-linked traces; every node's recorder shares it.
	obsSeq atomic.Uint64
}

// stripeHome is the deterministic object→home mapping of the striped
// policy: the stripe of an address is its page index modulo the machine
// size. Every node can compute it locally from a faulting address alone,
// which is what lets blind directory fetches skip a node-0 relay.
func stripeHome(addr vm.Addr, pageSize, procs int) int {
	return int(uint32(addr) / uint32(pageSize) % uint32(procs))
}

// exactByDefault reports whether a run determines copysets at the homes
// without being asked to: eager, non-adaptive runs on a live transport.
// The simulator keeps the prototype's broadcast, so the paper tables stay
// the prototype's; the lazy engine determines no copysets; the adaptive
// engine does not compose with home-directed ones.
func exactByDefault(transport string, lazy, adaptive bool) bool {
	return transport != "sim" && !lazy && !adaptive
}

// NewSystem builds a machine from declarations. Each object's home node
// holds its backing store (node 0 for everything under the default root
// home policy); other nodes start with empty directories and fault
// entries in from the object's home on demand, as in the prototype.
func NewSystem(cfg Config, decls []Decl, locks []LockDecl, barriers []BarrierDecl) *System {
	if cfg.Processors <= 0 || cfg.Processors > MaxProcessors {
		panic(fmt.Sprintf("core: %d processors outside 1–%d", cfg.Processors, MaxProcessors))
	}
	switch cfg.HomePolicy {
	case "", HomeRoot:
	case HomeStriped:
		// Reassign every object's home by its start page's stripe. The
		// decls are copied first: a Program reuses one decl slice across
		// runs (possibly concurrently, possibly at other processor
		// counts), so the caller's slice must stay untouched.
		ds := append([]Decl(nil), decls...)
		ps := cfg.PageSize
		if ps == 0 {
			ps = vm.DefaultPageSize
		}
		for i := range ds {
			ds[i].Home = stripeHome(ds[i].Start, ps, cfg.Processors)
		}
		decls = ds
	default:
		panic(fmt.Sprintf("core: unknown home policy %q (want %q or %q)", cfg.HomePolicy, HomeRoot, HomeStriped))
	}
	if cfg.Lazy && cfg.Adaptive {
		panic("core: the lazy consistency engine does not compose with the adaptive protocol engine")
	}
	if cfg.ExactCopyset && cfg.Adaptive {
		panic("core: home-directed copysets do not compose with the adaptive protocol engine")
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = vm.DefaultPageSize
	}
	zero := model.CostModel{}
	if cfg.Model == zero {
		cfg.Model = model.Default()
	}
	if err := cfg.Model.Validate(); err != nil {
		panic(err)
	}
	if cfg.Transport == nil {
		cfg.Transport = rt.NewSim(cfg.Model, cfg.Processors)
	}
	if cfg.Transport.Nodes() != cfg.Processors {
		panic(fmt.Sprintf("core: transport has %d nodes for %d processors",
			cfg.Transport.Nodes(), cfg.Processors))
	}
	if needsUpdateAcks(cfg.Transport.Name(), cfg.Batching) {
		// Mux guarantees only per-pair FIFO, not the cross-sender causal
		// order the simulator's serialized bus and the chan transport's
		// synchronous enqueue both give; and an outbox gives up sender
		// order across destinations on any transport (outbox.go, rule 3).
		// Release consistency then needs flushes to block until their
		// updates are acknowledged (see the AwaitUpdateAcks comment above).
		cfg.AwaitUpdateAcks = true
	}
	if exactByDefault(cfg.Transport.Name(), cfg.Lazy, cfg.Adaptive) {
		// A live eager release asks each home for its copyset instead of
		// broadcasting a query to every node (see the ExactCopyset
		// comment above).
		cfg.ExactCopyset = true
	}
	s := &System{
		cfg:      cfg,
		cost:     cfg.Model,
		tr:       cfg.Transport,
		decls:    decls,
		locks:    locks,
		barriers: barriers,
	}
	if cfg.Trace != nil {
		s.tr.SetTrace(cfg.Trace)
	}
	for i := 0; i < cfg.Processors; i++ {
		s.nodes = append(s.nodes, newNode(s, i))
	}
	// The root node's data object directory is initialized from the
	// shared data description table (§3.2); the home holds the backing.
	for _, d := range decls {
		annot := d.Annot
		if cfg.Override != nil {
			annot = *cfg.Override
		}
		if annot == protocol.Adaptive {
			// Adaptive is "no hint": start under the conventional
			// protocol and let the engine take it from there.
			if !cfg.Adaptive {
				panic(fmt.Sprintf("core: object %q declared adaptive but Config.Adaptive is off", d.Name))
			}
			annot = protocol.Conventional
		}
		if d.Size <= 0 || d.Size%vm.WordSize != 0 {
			panic(fmt.Sprintf("core: object %q size %d not a positive word multiple", d.Name, d.Size))
		}
		backing := make([]byte, d.Size)
		copy(backing, d.Init)
		e := &directory.Entry{
			Start:     d.Start,
			Size:      d.Size,
			Annot:     annot,
			Params:    annot.Params(),
			Home:      d.Home,
			Group:     d.Group,
			ProbOwner: d.Home,
			Owned:     true,
			Backing:   backing,
			Synchq:    d.Synchq,
			Sem:       s.tr.NewSemaphore(d.Home, fmt.Sprintf("entry[%#x]", d.Start), 1),
		}
		s.nodes[d.Home].dir.Insert(e)
		if cfg.HomePolicy == HomeStriped {
			// A multi-page object's later pages stripe to other nodes
			// than its start page. Blind requests for those addresses
			// land there, so each such stripe node gets a catalog entry:
			// the same static metadata a DirReply would install (no
			// backing, not owned) — equivalent to a pre-completed
			// directory fetch.
			for base := d.Start - vm.Addr(uint32(d.Start)%uint32(cfg.PageSize)); base < d.Start+vm.Addr(d.Size); base += vm.Addr(cfg.PageSize) {
				sp := stripeHome(base, cfg.PageSize, cfg.Processors)
				if sp == d.Home {
					continue
				}
				cn := s.nodes[sp]
				if _, ok := cn.dir.Lookup(d.Start); ok {
					continue
				}
				cn.dir.Insert(&directory.Entry{
					Start:     d.Start,
					Size:      d.Size,
					Annot:     annot,
					Params:    annot.Params(),
					Home:      d.Home,
					Group:     d.Group,
					ProbOwner: d.Home,
					Synchq:    -1,
					Sem:       s.tr.NewSemaphore(sp, fmt.Sprintf("entry[n%d %#x]", sp, d.Start), 1),
				})
			}
		}
	}
	// Synchronization object directories are populated everywhere: the
	// prototype distributes lock/barrier identity at creation time.
	for _, n := range s.nodes {
		for _, l := range locks {
			n.synch.Insert(&directory.SynchEntry{
				ID: l.ID, Kind: directory.SynchLock, Home: l.Home,
				ProbOwner: l.Home, Owned: n.id == l.Home, Succ: -1, Tail: l.Home,
			})
		}
		for _, b := range barriers {
			n.synch.Insert(&directory.SynchEntry{
				ID: b.ID, Kind: directory.SynchBarrier, Home: b.Home,
				Expected: b.Expected, Succ: -1,
			})
		}
	}
	return s
}

// Transport exposes the transport carrying the machine's messages.
func (s *System) Transport() rt.Transport { return s.tr }

// Node returns node i.
func (s *System) Node(i int) *Node { return s.nodes[i] }

// Nodes returns the node count.
func (s *System) Nodes() int { return len(s.nodes) }

// AssociateDataAndSynch records that the objects starting at addrs are
// protected by the given lock, so lock grants carry their data (§2.5).
// Call before Run.
func (s *System) AssociateDataAndSynch(lock int, addrs ...vm.Addr) {
	for _, n := range s.nodes {
		se, ok := n.synch.Lookup(lock)
		if !ok {
			panic(fmt.Sprintf("core: AssociateDataAndSynch on unknown lock %d", lock))
		}
		se.Assoc = append(se.Assoc, addrs...)
	}
}

// Run starts the dispatchers and the user root thread on node 0, then
// drives the simulation until the root thread function returns. It returns
// a *RuntimeError if the runtime detected annotation misuse, or any
// deadlock error from the kernel.
func (s *System) Run(root func(t *Thread)) error {
	for _, n := range s.nodes {
		n.startDispatcher()
	}
	rootThread := s.newThread(s.nodes[0], "user-root")
	s.liveUser.Add(1)
	s.tr.Spawn(0, rootThread.name, func(p rt.Proc) {
		rootThread.proc = p
		defer func() {
			if s.liveUser.Add(-1) == 0 {
				s.tr.Stop()
			}
		}()
		root(rootThread)
		// Anything left in the root thread's outbox must go out before
		// the liveUser countdown can stop the machine.
		rootThread.node.flush(p)
	})
	return s.tr.Run()
}

// newThread allocates a thread bound to a node.
func (s *System) newThread(n *Node, name string) *Thread {
	id := int(s.threadSeq.Add(1))
	t := &Thread{sys: s, node: n, id: id, name: fmt.Sprintf("%s@n%d", name, n.id)}
	return t
}

// Elapsed returns the virtual time consumed so far (total execution time
// after Run).
func (s *System) Elapsed() rt.Time { return s.tr.Now() }

// ObjectData returns the current contents of the object at addr as seen
// from node i (live copy, or fresh backing at the home), or nil if the
// node holds no data. Intended for post-run verification.
func (s *System) ObjectData(i int, addr vm.Addr) []byte {
	s.finishLazy()
	n := s.nodes[i]
	e, ok := n.dir.Lookup(addr)
	if !ok {
		return nil
	}
	// Updates still queued in the pending update queue belong in the
	// observed state (no virtual time to charge after the run).
	n.drainPendingObject(nil, e.Start)
	return n.currentData(e)
}

// FinalImage assembles the machine's final shared memory, keyed by
// object start address: each declared object's contents as seen from its
// home node, or from the first node still holding a copy. After a
// properly synchronized run every surviving copy is current (release
// consistency), so the image is well defined — the cross-transport
// equivalence tests compare it byte for byte.
func (s *System) FinalImage() map[vm.Addr][]byte {
	out := make(map[vm.Addr][]byte)
	for _, d := range s.decls {
		if data := s.ObjectData(d.Home, d.Start); data != nil {
			out[d.Start] = data
			continue
		}
		for i := range s.nodes {
			if data := s.ObjectData(i, d.Start); data != nil {
				out[d.Start] = data
				break
			}
		}
	}
	return out
}

// AdaptStats summarizes the adaptive engine's activity after a run.
type AdaptStats struct {
	// Proposals counts switch proposals issued (including home-local
	// decisions); Commits counts switches committed (each counted once,
	// at the object's home); Applied counts per-node entry rewrites.
	Proposals int
	Commits   int
	Applied   int
}

// AdaptStats aggregates the adaptive engine's counters across nodes.
// Zero-valued when the system is not adaptive.
func (s *System) AdaptStats() AdaptStats {
	var st AdaptStats
	for _, n := range s.nodes {
		st.Applied += n.AdaptApplied
		if n.adaptEng != nil {
			st.Proposals += n.adaptEng.Proposals
			st.Commits += n.adaptEng.Commits
		}
	}
	return st
}

// FinalAnnotations reports each object's annotation after the run, keyed
// by group base address, as seen from its home node (the node that
// serializes its switches) — what the adaptive engine converged to.
func (s *System) FinalAnnotations() map[vm.Addr]protocol.Annotation {
	out := make(map[vm.Addr]protocol.Annotation)
	for _, n := range s.nodes {
		for _, e := range n.dir.Entries() {
			if e.Home != n.id {
				continue
			}
			base := e.Group
			if base == 0 {
				base = e.Start
			}
			if _, ok := out[base]; !ok {
				out[base] = e.Annot
			}
		}
	}
	return out
}

// obsRecorders collects the per-node recorders (entries are nil when
// observability is off).
func (s *System) obsRecorders() []*obs.Recorder {
	recs := make([]*obs.Recorder, len(s.nodes))
	for i, n := range s.nodes {
		recs[i] = n.obs
	}
	return recs
}

// ObsLatencies merges every node's latency histograms and returns the
// per-operation summaries, keyed by operation name. Nil when metrics
// were not enabled (Config.Metrics).
func (s *System) ObsLatencies() map[string]obs.Summary {
	return obs.MergeLatencies(s.obsRecorders())
}

// ObsProfile merges every node's hot-object counters into per-object
// profiles, sorted by address. Nil when metrics were not enabled.
func (s *System) ObsProfile() []obs.ObjectProfile {
	return obs.MergeProfiles(s.obsRecorders())
}

// ObsEvents merges every node's event ring into one time-ordered stream
// and reports how many events the rings dropped. Empty when tracing was
// not enabled (Config.TraceEvents).
func (s *System) ObsEvents() ([]obs.Event, uint64) {
	return obs.MergeEvents(s.obsRecorders())
}

// NodeUserTime sums user-mode virtual time over node i's threads — the
// "User" column of Tables 3–5 for the root node.
func (s *System) NodeUserTime(i int) rt.Time {
	var total rt.Time
	for _, p := range s.nodes[i].procs {
		total += p.UserTime()
	}
	return total
}

// NodeSystemTime sums Munin-runtime virtual time over node i's threads and
// dispatcher — the "System" column of Tables 3–5 for the root node.
func (s *System) NodeSystemTime(i int) rt.Time {
	var total rt.Time
	for _, p := range s.nodes[i].procs {
		total += p.SystemTime()
	}
	return total
}
