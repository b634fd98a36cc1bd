// Package directory implements Munin's object directories (§3.2).
//
// Each node keeps a data object directory: a hash table mapping shared
// addresses to the entry describing the object at that address. Entries
// carry the protocol parameter bits, dynamic state bits, the copyset, the
// probable owner, the home node, an optional link to the synchronization
// object protecting the data, and an access-control semaphore. The root
// node's directory is initialized from the shared data description table
// that the "linker" (our Runtime setup) produces; other nodes fault
// entries in from the object's home node on demand.
//
// A parallel synchronization object directory describes locks and
// barriers.
package directory

import (
	"fmt"
	"slices"
	"sort"

	"munin/internal/nodeset"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
)

// Copyset is the set of nodes holding copies of an object. The paper
// notes a single-word bitmap suffices for a prototype-sized system
// (16 nodes); the growable nodeset.Set keeps that word inline as the
// allocation-free fast path and pages out to overflow words past 64
// nodes. Copysets are values: Add/Remove/Union return new sets, and
// comparisons go through Equal (never ==).
type Copyset = nodeset.Set

// AllUpTo returns the copyset {0, ..., n-1} — every node of an n-node
// machine. It replaces the retired AllNodes = ^0 sentinel, whose
// implicit "nodes 0–63" membership would silently mask members on
// larger machines.
func AllUpTo(n int) Copyset { return nodeset.AllUpTo(n) }

// Access accumulates the per-entry access events the adaptive profiler
// (internal/adapt) consumes. Every count is what THIS node observed since
// the last annotation switch: its own faults, the remote requests it
// served, its flush history. The counters are plain integers updated on
// paths that already charge virtual time, so profiling itself costs
// nothing extra until a release-point classification is attempted.
type Access struct {
	// ReadFaults and WriteFaults count local access misses.
	ReadFaults  int
	WriteFaults int
	// LockCoupled counts local faults taken while this node held a lock —
	// the signature of migratory, critical-section data.
	LockCoupled int
	// ServedReads counts read copies served to remote nodes from here.
	ServedReads int
	// OwnTransfers counts ownership handed away (write-invalidate
	// ping-pong when it keeps coming back).
	OwnTransfers int
	// Migrations counts migrate requests served from here.
	Migrations int
	// InvalidatesTaken counts invalidations of the local copy received
	// from remote writers.
	InvalidatesTaken int
	// Reduces counts Fetch-and-Φ operations applied or requested here.
	Reduces int
	// Flushes counts DUQ flushes of local modifications; FlushStable
	// counts consecutive flushes whose determined copyset equalled the
	// previous one (the stable-sharing signal), and FlushCopyset is that
	// last determined set.
	Flushes      int
	FlushStable  int
	FlushCopyset Copyset
	// StableDrift counts stable-sharing violations the adaptive runtime
	// degraded gracefully (a locked copyset proved wrong).
	StableDrift int
	// Writers and Readers are the nodes observed writing/reading the
	// object, from local faults and served requests combined.
	Writers Copyset
	Readers Copyset
}

// Events returns the total number of profiled events — the evidence mass
// hysteresis thresholds are compared against.
func (a *Access) Events() int {
	return a.ReadFaults + a.WriteFaults + a.ServedReads + a.OwnTransfers +
		a.Migrations + a.InvalidatesTaken + a.Reduces + a.Flushes
}

// Reset clears the profile (applied when an annotation switch commits, so
// fresh evidence must accumulate before the next proposal).
func (a *Access) Reset() { *a = Access{} }

// Entry is one data object directory entry. The static fields (Start, Size,
// Annot, Params, Home) travel between nodes in DirReply messages; the
// dynamic fields describe this node's local copy.
type Entry struct {
	// Start and Size are the key for looking up the entry given an
	// address within the object.
	Start vm.Addr
	Size  int

	// Annot is the sharing annotation; Params the derived parameter bits.
	Annot  protocol.Annotation
	Params protocol.Params

	// Home is the node at which the object was created (the root node for
	// statically allocated objects).
	Home int

	// Group is the start address of the declared variable this object
	// belongs to (page-sized objects of one matrix share a group; a
	// single-object variable is its own group). The adaptive engine
	// profiles and switches protocols at group granularity — the
	// granularity the paper's annotations use. Zero means ungrouped
	// (treated as Start).
	Group vm.Addr

	// ProbOwner is the best guess at the current owner, used to reduce
	// the cost of locating the owner under ownership-based protocols.
	ProbOwner int

	// Owned reports whether this node currently owns the object.
	Owned bool

	// Valid reports whether the local copy holds current data.
	Valid bool

	// Writable reports whether the local copy is mapped read-write.
	Writable bool

	// Modified reports whether the local copy changed since the last
	// flush.
	Modified bool

	// Twin is the pristine copy made on the first delayed write; nil when
	// no twin exists.
	Twin []byte

	// Enqueued reports whether the entry sits on the delayed update queue.
	Enqueued bool

	// Copyset names remote nodes whose copies must be updated or
	// invalidated.
	Copyset Copyset

	// AwaitFrom names nodes whose copyset-determination query this node
	// answered "held" and whose flush update has not yet arrived. While
	// nonempty, read requests for the object are deferred: serving the
	// local copy now could hand out data that predates a release the
	// requester will synchronize past.
	AwaitFrom Copyset

	// CopysetKnown records that the sharing relationship has been
	// determined: a stable-sharing object's, or, at a writer, the copyset
	// of a home-directed object its home answered (and keeps current).
	CopysetKnown bool

	// Cachers names, at a home-directed object's home, the writers whose
	// copyset lookups it answered: each keeps that answer, so the home
	// tells each of them about every reader it admits later.
	Cachers Copyset

	// Promises counts, at a home-directed object's home, the cachers'
	// answers still owed for the readers it announced: one per notify.
	// While nonzero, read requests for the object are deferred.
	Promises int

	// Backing, on the home node, holds the object's initial contents from
	// the shared data description table. The home serves demand reads
	// from it without materializing a live replica, so untouched objects
	// never drag the home into their copysets. Nil on non-home nodes.
	Backing []byte

	// BackingStale records, on the home node, that remote writers have
	// modified the object since initialization, so Backing can no longer
	// serve reads; requests forward along ProbOwner instead.
	BackingStale bool

	// Synchq optionally links the object to the synchronization object
	// that protects it (AssociateDataAndSynch). -1 when unset.
	Synchq int

	// Epoch counts the adaptive annotation switches applied to this
	// entry. Proposals and commits carry the proposer's epoch so that
	// stale advice (formed before an earlier switch) is discarded, and
	// the object's home node serializes the epoch sequence.
	Epoch uint32

	// PendingAnnot holds an adaptive switch that arrived while local
	// delayed writes were still enqueued (or mid-flush); it is applied at
	// this node's next release flush, after those writes have propagated
	// under the protocol they were buffered under.
	PendingAnnot *protocol.Annotation

	// Acc is the adaptive profiler's event record for this entry (zero
	// and unused unless the runtime is configured adaptive).
	Acc Access

	// Lrc is the lazy release consistency engine's per-copy interval
	// state (nil under the eager engine); see internal/lrc.
	Lrc *LrcEntry

	// Sem serializes protocol operations on the entry across block
	// points.
	Sem rt.Semaphore
}

// LrcEntry tracks, under the lazy release consistency engine, which
// closed write intervals the entry's local base (the live copy, or the
// home's backing after a lazy drop refreshed it) has incorporated, and
// the closed-but-unmaterialized interval range of this node's own
// buffered writes.
type LrcEntry struct {
	// Applied[j] is the highest closed interval of node j whose diffs
	// are incorporated in the base. For the local node itself it is the
	// page's own-write coverage (the page always contains its own
	// stores).
	Applied []uint32
	// PendFirst and PendLast bound the closed intervals whose local
	// writes still live only in the page/twin pair — the diff is
	// materialized lazily at the first remote request or the next local
	// write fault. Zero means nothing pending. PendVT is the node's
	// vector timestamp at PendLast's close — the happens-before stamp
	// the materialized record will carry.
	PendFirst uint32
	PendLast  uint32
	PendVT    []uint32
}

// NewLrcEntry returns fresh lazy-engine state for a machine of n nodes.
func NewLrcEntry(n int) *LrcEntry { return &LrcEntry{Applied: make([]uint32, n)} }

// Contains reports whether addr falls within the object.
func (e *Entry) Contains(addr vm.Addr) bool {
	return addr >= e.Start && addr < e.Start+vm.Addr(e.Size)
}

// End returns the first address past the object.
func (e *Entry) End() vm.Addr { return e.Start + vm.Addr(e.Size) }

// String summarizes the entry for traces.
func (e *Entry) String() string {
	return fmt.Sprintf("[%#x+%d %v home=%d owner=%v valid=%v rw=%v mod=%v]",
		e.Start, e.Size, e.Annot, e.Home, e.Owned, e.Valid, e.Writable, e.Modified)
}

// Table is one node's data object directory.
type Table struct {
	pageSize int
	byPage   map[vm.Addr]*Entry
	entries  []*Entry
}

// NewTable returns an empty directory for the given page size.
func NewTable(pageSize int) *Table {
	if pageSize <= 0 {
		panic("directory: page size must be positive")
	}
	return &Table{pageSize: pageSize, byPage: make(map[vm.Addr]*Entry)}
}

// pageBase rounds addr down to its page base.
func (t *Table) pageBase(addr vm.Addr) vm.Addr {
	return addr - vm.Addr(uint32(addr)%uint32(t.pageSize))
}

// Insert registers an entry, indexing every page it covers. Overlapping an
// existing object is a setup bug and panics.
func (t *Table) Insert(e *Entry) {
	if e.Size <= 0 {
		panic(fmt.Sprintf("directory: entry %#x has size %d", e.Start, e.Size))
	}
	for b := t.pageBase(e.Start); b < e.End(); b += vm.Addr(t.pageSize) {
		if old, ok := t.byPage[b]; ok && old != e {
			panic(fmt.Sprintf("directory: page %#x already described by %v", b, old))
		}
		t.byPage[b] = e
	}
	// Keep entries address-sorted, so Entries is a copy and nothing more.
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Start > e.Start })
	t.entries = slices.Insert(t.entries, i, e)
}

// Remove forgets an entry (used when ChangeAnnotation re-registers an
// object with different granularity).
func (t *Table) Remove(e *Entry) {
	for b := t.pageBase(e.Start); b < e.End(); b += vm.Addr(t.pageSize) {
		if t.byPage[b] == e {
			delete(t.byPage, b)
		}
	}
	for i, o := range t.entries {
		if o == e {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			break
		}
	}
}

// Lookup returns the entry describing the object at addr, if known locally.
func (t *Table) Lookup(addr vm.Addr) (*Entry, bool) {
	e, ok := t.byPage[t.pageBase(addr)]
	if !ok || !e.Contains(addr) {
		return nil, false
	}
	return e, true
}

// Entries returns all entries ordered by start address.
func (t *Table) Entries() []*Entry {
	return append([]*Entry(nil), t.entries...)
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.entries) }

// GroupEntries returns the locally known entries of the group based at
// base, ordered by start address (an adaptive switch applies to all of
// them).
func (t *Table) GroupEntries(base vm.Addr) []*Entry {
	var out []*Entry
	for _, e := range t.Entries() {
		g := e.Group
		if g == 0 {
			g = e.Start
		}
		if g == base {
			out = append(out, e)
		}
	}
	return out
}

// SynchKind distinguishes synchronization object types.
type SynchKind int

// Synchronization object kinds.
const (
	SynchLock SynchKind = iota
	SynchBarrier
)

// String names the kind.
func (k SynchKind) String() string {
	switch k {
	case SynchLock:
		return "lock"
	case SynchBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("SynchKind(%d)", int(k))
	}
}

// SynchEntry is one synchronization object directory entry. Each node holds
// its own view; the distributed-queue lock state (Owned, Held, Succ) is
// meaningful per node.
type SynchEntry struct {
	ID   int
	Kind SynchKind

	// Home is the creating node: barrier arrivals collect there, and it
	// is the fallback for lock location.
	Home int

	// ProbOwner is this node's best guess at the lock's owner node.
	ProbOwner int

	// Owned reports whether this node holds lock ownership.
	Owned bool

	// Held reports whether a local thread currently holds the lock.
	Held bool

	// Succ is the next node in the distributed queue (-1 none): each
	// enqueued node knows only the identity of its successor (§3.4).
	Succ int

	// Tail is the last node of the distributed queue, tracked by the
	// owner so new requests can be forwarded to the end of the queue.
	Tail int

	// Expected is the barrier's release threshold.
	Expected int

	// Arrived counts barrier arrivals at the home node.
	Arrived int

	// Assoc lists the shared objects associated with this lock
	// (AssociateDataAndSynch).
	Assoc []vm.Addr
}

// SynchTable is one node's synchronization object directory.
type SynchTable struct {
	byID map[int]*SynchEntry
}

// NewSynchTable returns an empty synchronization directory.
func NewSynchTable() *SynchTable {
	return &SynchTable{byID: make(map[int]*SynchEntry)}
}

// Insert registers a synchronization entry; duplicate IDs panic.
func (t *SynchTable) Insert(e *SynchEntry) {
	if _, ok := t.byID[e.ID]; ok {
		panic(fmt.Sprintf("directory: synch object %d already present", e.ID))
	}
	t.byID[e.ID] = e
}

// Lookup returns the entry for the synchronization object id.
func (t *SynchTable) Lookup(id int) (*SynchEntry, bool) {
	e, ok := t.byID[id]
	return e, ok
}

// Len returns the number of entries.
func (t *SynchTable) Len() int { return len(t.byID) }
