// Package lrc implements the state machine of Munin's second consistency
// subsystem: interval-based lazy release consistency with per-node vector
// timestamps, in the style the same group published after the SOSP '91
// paper (Keleher, Cox, Zwaenepoel — "Lazy Release Consistency for
// Software Distributed Shared Memory", ISCA '92, and TreadMarks).
//
// The eager engine (internal/core's releaseFlush) propagates every
// buffered write to the whole copyset at the release itself, whether or
// not any of those nodes will ever synchronize with the releaser. The
// lazy engine inverts the direction of every data motion:
//
//   - A release propagates nothing. It closes an interval on the
//     releasing node: the set of objects modified since the previous
//     close, stamped with the node's vector timestamp. The twin is kept;
//     the diff is not even computed yet.
//   - Write notices (interval → object list) travel on the next
//     synchronization message the happens-before order requires: the
//     lock grant to the next acquirer, the barrier release to the
//     departing nodes. The acquirer's vector timestamp rides on its
//     request so the granter sends exactly the notices the acquirer has
//     not seen.
//   - Diffs are materialized lazily — at the first remote request, or at
//     the next local write fault (whichever makes the pending interval's
//     writes distinguishable from newer ones) — and fetched on demand by
//     the acquirer, per writer, only for objects it actually holds or
//     touches.
//   - Applied intervals are garbage collected: barrier arrivals report
//     per-writer applied floors, the master min-merges them, and the
//     resulting floor (everything below it is incorporated in every
//     surviving base) licenses every node to drop the covered diff
//     records and notice bookkeeping.
//
// This package holds the per-node bookkeeping — vector timestamp,
// interval knowledge, notice table, diff record store — as a pure state
// machine; internal/core drives it from the fault/release/acquire paths
// and moves the wire messages (wire.Lrc*).
package lrc

import (
	"fmt"
	"slices"
	"sort"

	"munin/internal/vm"
	"munin/internal/wire"
)

// interval is one known write-notice interval of some node.
type interval struct {
	ivl   uint32
	addrs []vm.Addr
}

// Stats counts the engine's activity on one node.
type Stats struct {
	// Intervals counts intervals closed locally.
	Intervals int
	// NoticesSent and NoticesAbsorbed count write notices (one per
	// interval×object) attached to outgoing synchronization messages and
	// merged from incoming ones.
	NoticesSent     int
	NoticesAbsorbed int
	// DiffRequests counts diff request messages issued from this node;
	// RecordsFetched the records obtained through them.
	DiffRequests   int
	RecordsFetched int
	// RecordsMaterialized counts diffs actually encoded (at first remote
	// request or next local write); RecordsServed counts records shipped
	// to requesters.
	RecordsMaterialized int
	RecordsServed       int
	// RecordsGCed and NoticesGCed count garbage-collected diff records
	// and interval notices.
	RecordsGCed int
	NoticesGCed int
}

// Engine is one node's lazy release consistency state.
type Engine struct {
	self  int
	nodes int

	// vt is the node's vector timestamp: vt[j] is the highest closed
	// interval of node j this node has seen notices for (vt[self] is the
	// number of intervals closed here).
	vt []uint32

	// floor is the vector timestamp of the last barrier release absorbed:
	// every barrier participant knows all intervals at or below it, so
	// arrival notices start above it.
	floor []uint32

	// known holds, per node, the intervals this node knows the contents
	// of, ascending. known[self] is the node's own close history.
	known [][]interval

	// noticed tracks, per object, the highest interval of each writer a
	// write notice named it in.
	noticed map[vm.Addr][]uint32

	// records is the node's own diff store as a writer: per object, the
	// materialized diffs of its closed intervals, ascending.
	records map[vm.Addr][]wire.LrcRecord

	Stats Stats
}

// New returns an empty engine for node self of a machine of n nodes.
func New(self, nodes int) *Engine {
	return &Engine{
		self:    self,
		nodes:   nodes,
		vt:      make([]uint32, nodes),
		floor:   make([]uint32, nodes),
		known:   make([][]interval, nodes),
		noticed: make(map[vm.Addr][]uint32),
		records: make(map[vm.Addr][]wire.LrcRecord),
	}
}

// VT returns a copy of the node's vector timestamp.
func (e *Engine) VT() []uint32 { return append([]uint32(nil), e.vt...) }

// Floor returns a copy of the global-knowledge floor.
func (e *Engine) Floor() []uint32 { return append([]uint32(nil), e.floor...) }

// AdvanceFloor raises the floor to the given barrier-release timestamp.
func (e *Engine) AdvanceFloor(vt []uint32) {
	for j := range e.floor {
		if j < len(vt) && vt[j] > e.floor[j] {
			e.floor[j] = vt[j]
		}
	}
}

// CloseInterval closes one interval over the given modified objects: it
// increments the node's own timestamp component, records the interval's
// contents and close-time vector timestamp, and marks every object
// noticed. The caller (core) has already drained the delayed update queue
// and write-protected the objects. addrs must be non-empty.
func (e *Engine) CloseInterval(addrs []vm.Addr) uint32 {
	if len(addrs) == 0 {
		panic("lrc: closing an empty interval")
	}
	e.vt[e.self]++
	ivl := e.vt[e.self]
	sorted := append([]vm.Addr(nil), addrs...)
	slices.Sort(sorted)
	e.known[e.self] = append(e.known[e.self], interval{ivl: ivl, addrs: sorted})
	for _, a := range sorted {
		e.noteOne(a, e.self, ivl)
	}
	e.Stats.Intervals++
	return ivl
}

// noteOne records that writer j's interval ivl modified addr.
func (e *Engine) noteOne(addr vm.Addr, j int, ivl uint32) {
	n := e.noticed[addr]
	if n == nil {
		n = make([]uint32, e.nodes)
		e.noticed[addr] = n
	}
	if ivl > n[j] {
		n[j] = ivl
	}
}

// NoticesSince lists every known interval above the given vector
// timestamp, ordered by (node, interval) — the write notices a
// synchronization message to a node with that timestamp must carry. Each
// node's intervals ascend, so the ones to send are a suffix found by
// binary search: the cost is what is returned, not what is known.
func (e *Engine) NoticesSince(vt []uint32) []wire.LrcInterval {
	// Size the list and one backing array for every address list first.
	ivls, addrs := 0, 0
	for j := 0; j < e.nodes; j++ {
		for _, iv := range e.knownAbove(j, vt) {
			ivls++
			addrs += len(iv.addrs)
		}
	}
	if ivls == 0 {
		return nil
	}
	out := make([]wire.LrcInterval, 0, ivls)
	backing := make([]vm.Addr, 0, addrs)
	for j := 0; j < e.nodes; j++ {
		for _, iv := range e.knownAbove(j, vt) {
			at := len(backing)
			backing = append(backing, iv.addrs...)
			out = append(out, wire.LrcInterval{Node: uint8(j), Ivl: iv.ivl, Addrs: backing[at:len(backing):len(backing)]})
		}
	}
	e.Stats.NoticesSent += addrs
	return out
}

// knownAbove returns node j's known intervals above vt[j] (all of them
// when vt is shorter than that).
func (e *Engine) knownAbove(j int, vt []uint32) []interval {
	var after uint32
	if j < len(vt) {
		after = vt[j]
	}
	return e.known[j][firstAbove(e.known[j], after):]
}

// firstAbove returns the index of the first interval above after in an
// ascending list (len(ks) when there is none).
func firstAbove(ks []interval, after uint32) int {
	return sort.Search(len(ks), func(i int) bool { return ks[i].ivl > after })
}

// Absorb merges a synchronization message's vector timestamp and write
// notices into the engine and returns the objects whose notice state
// advanced (sorted; the caller refreshes or invalidates its copies of
// them). Absorbing is idempotent.
func (e *Engine) Absorb(vt []uint32, notices []wire.LrcInterval) []vm.Addr {
	for j := range e.vt {
		if j < len(vt) && vt[j] > e.vt[j] {
			e.vt[j] = vt[j]
		}
	}
	var touched []vm.Addr
	for _, iv := range notices {
		j := int(iv.Node)
		if j < 0 || j >= e.nodes || j == e.self {
			continue
		}
		if iv.Ivl > e.vt[j] {
			e.vt[j] = iv.Ivl
		}
		ks := e.known[j]
		if len(ks) == 0 || iv.Ivl > ks[len(ks)-1].ivl {
			e.known[j] = append(ks, interval{ivl: iv.Ivl, addrs: append([]vm.Addr(nil), iv.Addrs...)})
		}
		for _, a := range iv.Addrs {
			n := e.noticed[a]
			if n == nil || iv.Ivl > n[j] {
				e.noteOne(a, j, iv.Ivl)
				touched = append(touched, a)
				e.Stats.NoticesAbsorbed++
			}
		}
	}
	// An object two intervals named was appended twice.
	slices.Sort(touched)
	return slices.Compact(touched)
}

// Noticed returns, for each writer, the highest interval a write notice
// named addr in (nil when the object was never noticed).
func (e *Engine) Noticed(addr vm.Addr) []uint32 { return e.noticed[addr] }

// NeedsFrom lists the remote writers whose noticed intervals for addr
// exceed the base's applied intervals — the nodes a refresh must fetch
// diffs from — in ascending node order.
func (e *Engine) NeedsFrom(addr vm.Addr, applied []uint32) []int {
	n := e.noticed[addr]
	if n == nil {
		return nil
	}
	var out []int
	for j := 0; j < e.nodes; j++ {
		if j == e.self {
			continue
		}
		var have uint32
		if j < len(applied) {
			have = applied[j]
		}
		if n[j] > have {
			out = append(out, j)
		}
	}
	return out
}

// AddRecord stores one materialized diff record for addr in this node's
// writer store.
func (e *Engine) AddRecord(addr vm.Addr, rec wire.LrcRecord) {
	e.records[addr] = append(e.records[addr], rec)
	e.Stats.RecordsMaterialized++
}

// RecordsAfter returns this node's records for addr with Last > after,
// ascending: a suffix of the store, found by binary search and returned
// without a copy. The slice is the caller's to read for as long as it
// likes — AddRecord appends past it and GC re-slices, so nothing it holds
// is ever rewritten — and not to append to or modify.
func (e *Engine) RecordsAfter(addr vm.Addr, after uint32) []wire.LrcRecord {
	rs := e.records[addr]
	i := firstPast(rs, after)
	if i == len(rs) {
		return nil
	}
	e.Stats.RecordsServed += len(rs) - i
	return rs[i:len(rs):len(rs)]
}

// firstPast returns the index of the first record reaching past interval
// after in an ascending list (len(rs) when there is none).
func firstPast(rs []wire.LrcRecord, after uint32) int {
	return sort.Search(len(rs), func(i int) bool { return rs[i].Last > after })
}

// LastRecord returns the highest interval covered by a stored record for
// addr (0 when none) — the own-write coverage of the twin base.
func (e *Engine) LastRecord(addr vm.Addr) uint32 {
	rs := e.records[addr]
	if len(rs) == 0 {
		return 0
	}
	return rs[len(rs)-1].Last
}

// RecordAddrs lists every object this node stores records for, sorted
// (post-run reconstruction).
func (e *Engine) RecordAddrs() []vm.Addr {
	out := make([]vm.Addr, 0, len(e.records))
	for a := range e.records {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// RecordCount returns the number of stored diff records (tests and GC
// assertions).
func (e *Engine) RecordCount() int {
	n := 0
	for _, rs := range e.records {
		n += len(rs)
	}
	return n
}

// GC drops the diff records and interval notices licensed by the given
// per-writer floors: this node's own records with Last <= floors[self],
// and every known interval (j, ivl <= floors[j]). Both lists ascend, so
// what goes is a prefix, and it goes by re-slicing: a slice RecordsAfter
// handed out earlier keeps reading what it read. (The dropped prefix is
// freed when the list next outgrows its array.) Returns the number of
// records dropped.
func (e *Engine) GC(floors []uint32) int {
	if len(floors) < e.nodes {
		return 0
	}
	dropped := 0
	for a, rs := range e.records {
		k := firstPast(rs, floors[e.self])
		dropped += k
		if k == len(rs) {
			delete(e.records, a)
		} else {
			e.records[a] = rs[k:]
		}
	}
	for j := 0; j < e.nodes; j++ {
		ks := e.known[j]
		k := firstAbove(ks, floors[j])
		for _, iv := range ks[:k] {
			e.Stats.NoticesGCed += len(iv.addrs)
		}
		e.known[j] = ks[k:]
	}
	e.Stats.RecordsGCed += dropped
	return dropped
}

// MinFloors min-merges a contributor's applied floors into acc (both per
// writer), returning acc. A nil acc starts from the contribution.
func MinFloors(acc, contrib []uint32) []uint32 {
	if acc == nil {
		return append([]uint32(nil), contrib...)
	}
	for j := range acc {
		if j < len(contrib) && contrib[j] < acc[j] {
			acc[j] = contrib[j]
		}
	}
	return acc
}

// WriterRecords pairs a writer node with diff records fetched from it.
// UpTo is the writer's noticed interval the request was formed against:
// applying the response makes the base current through UpTo (and through
// any newer record the writer volunteered), but NOT through notices that
// arrived while the fetch was in flight — bumping past those would skip
// diffs forever.
type WriterRecords struct {
	Writer  int
	UpTo    uint32
	Records []wire.LrcRecord
}

// Order visits the records of per-writer lists in a single sequence that
// respects the happens-before partial order their close-time vector
// timestamps encode: if record A's interval happened before record B's,
// A is visited before B. Concurrent records commute for data-race-free
// programs; ties break on (writer, interval) so the order is
// deterministic. visit gets each record in place, to read only.
//
// Each set's records must ascend in happens-before, as one writer's
// records in interval order do (a writer listed in two sets is fine as
// long as each set ascends). Then only the head of a set can be minimal
// among what is left, and a head is minimal among everything left exactly
// when it is minimal among the heads — so Order is a merge over the
// heads, O(n·k²) timestamp comparisons for n records in k sets, and picks
// what a selection sort over all n would pick.
func Order(sets []WriterRecords, visit func(writer int, rec *wire.LrcRecord)) {
	// pos[l] indexes set l's head; on the stack for any usual k.
	var few [16]int
	pos := few[:]
	if len(sets) > len(few) {
		pos = make([]int, len(sets))
	}
	for {
		first, best := -1, -1
		for l := range sets {
			if pos[l] == len(sets[l].Records) {
				continue
			}
			if first < 0 {
				first = l
			}
			c := &sets[l].Records[pos[l]]
			minimal := true
			for k := range sets {
				if k != l && pos[k] < len(sets[k].Records) && vtLess(sets[k].Records[pos[k]].VT, c.VT) {
					minimal = false
					break
				}
			}
			if !minimal {
				continue
			}
			if best < 0 || sets[l].Writer < sets[best].Writer ||
				(sets[l].Writer == sets[best].Writer && c.First < sets[best].Records[pos[best]].First) {
				best = l
			}
		}
		if first < 0 {
			return
		}
		if best < 0 {
			// A cycle can only arise from corrupt timestamps; fall back
			// to the first record left rather than spinning.
			best = first
		}
		visit(sets[best].Writer, &sets[best].Records[pos[best]])
		pos[best]++
	}
}

// vtLess reports a < b: a <= b componentwise and a != b (a's interval
// happened before b's).
func vtLess(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// String summarizes the engine for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("lrc[n%d vt=%v records=%d]", e.self, e.vt, e.RecordCount())
}
