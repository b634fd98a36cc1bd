// Package wire defines the messages Munin nodes exchange and their binary
// encoding.
//
// The prototype ran over V-kernel messages on a 10 Mbps Ethernet; the
// network model charges wire time per encoded byte, so every message here
// has an honest binary form (encoding/binary, little-endian). The codec
// is allocation-free on the hot path: AppendTo encodes into a
// caller-owned (or pooled, see GetBuf/PutBuf) buffer and Size computes
// the encoded length per message kind without encoding anything — the
// wire tests hold Size(msg) == len(Marshal(msg)) for every kind over
// randomized messages. Marshal and Unmarshal are the allocating
// round-trip wrappers; the simulated network uses the encoded size for
// timing and delivers the decoded form.
//
// Batch is the per-destination coalescing envelope: everything one
// protocol operation sends to the same node rides one transport send.
// See DESIGN.md "Wire protocol" for the full field-layout reference.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"munin/internal/nodeset"
	"munin/internal/vm"
)

// Kind identifies a message type on the wire.
type Kind uint8

// Message kinds. The data-consistency kinds implement the directory-based
// protocol of §3; the lock/barrier kinds implement the distributed
// queue-based synchronization of §3.4; MPData carries the hand-coded
// message-passing baselines' payloads.
const (
	KindInvalid Kind = iota
	KindReadReq
	KindReadReply
	KindOwnReq
	KindOwnReply
	KindInvalidate
	KindInvalidateAck
	KindMigrateReq
	KindMigrateReply
	KindUpdateBatch
	KindUpdateAck
	KindCopysetQuery
	KindCopysetReply
	KindReduceReq
	KindReduceReply
	KindLockAcq
	KindLockSetSucc
	KindLockGrant
	KindBarrierArrive
	KindBarrierRelease
	KindDirReq
	KindDirReply
	KindPhaseChange
	KindChangeAnnot
	KindCopysetLookup
	KindCopysetInfo
	KindCopysetNotify
	KindOwnNotify
	KindAdaptPropose
	KindAdaptCommit
	KindMPData
	KindLockOwnNotify
	KindLrcLockAcq
	KindLrcLockSetSucc
	KindLrcLockGrant
	KindLrcBarrierArrive
	KindLrcBarrierRelease
	KindLrcDiffReq
	KindLrcDiffResp
	KindLrcFetchReq
	KindLrcFetchResp
	KindLrcGC
	KindBatch
	numKinds
)

var kindNames = [...]string{
	KindInvalid:           "invalid",
	KindReadReq:           "read-req",
	KindReadReply:         "read-reply",
	KindOwnReq:            "own-req",
	KindOwnReply:          "own-reply",
	KindInvalidate:        "invalidate",
	KindInvalidateAck:     "invalidate-ack",
	KindMigrateReq:        "migrate-req",
	KindMigrateReply:      "migrate-reply",
	KindUpdateBatch:       "update-batch",
	KindUpdateAck:         "update-ack",
	KindCopysetQuery:      "copyset-query",
	KindCopysetReply:      "copyset-reply",
	KindReduceReq:         "reduce-req",
	KindReduceReply:       "reduce-reply",
	KindLockAcq:           "lock-acq",
	KindLockSetSucc:       "lock-set-succ",
	KindLockGrant:         "lock-grant",
	KindBarrierArrive:     "barrier-arrive",
	KindBarrierRelease:    "barrier-release",
	KindDirReq:            "dir-req",
	KindDirReply:          "dir-reply",
	KindPhaseChange:       "phase-change",
	KindChangeAnnot:       "change-annot",
	KindCopysetLookup:     "copyset-lookup",
	KindCopysetInfo:       "copyset-info",
	KindCopysetNotify:     "copyset-notify",
	KindOwnNotify:         "own-notify",
	KindAdaptPropose:      "adapt-propose",
	KindAdaptCommit:       "adapt-commit",
	KindMPData:            "mp-data",
	KindLockOwnNotify:     "lock-own-notify",
	KindLrcLockAcq:        "lrc-lock-acq",
	KindLrcLockSetSucc:    "lrc-lock-set-succ",
	KindLrcLockGrant:      "lrc-lock-grant",
	KindLrcBarrierArrive:  "lrc-barrier-arrive",
	KindLrcBarrierRelease: "lrc-barrier-release",
	KindLrcDiffReq:        "lrc-diff-req",
	KindLrcDiffResp:       "lrc-diff-resp",
	KindLrcFetchReq:       "lrc-fetch-req",
	KindLrcFetchResp:      "lrc-fetch-resp",
	KindLrcGC:             "lrc-gc",
	KindBatch:             "batch",
}

// String returns the kind's trace name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kinds returns every valid kind, for statistics tables.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := KindReadReq; k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Message is any Munin protocol message.
type Message interface {
	Kind() Kind
}

// UpdateEntry is one object's pending changes inside an UpdateBatch or a
// LockGrant piggyback. Exactly one of Diff or Full is set: Diff carries a
// diffenc encoding (multiple-writer objects); Full carries the whole
// object (no twin).
type UpdateEntry struct {
	Addr vm.Addr
	Size uint32 // object size in bytes
	Diff []byte
	Full []byte
}

// ReduceOp identifies a Fetch-and-Φ operation on a reduction object.
type ReduceOp uint8

// Supported Fetch-and-Φ operations (§2.3.2's reduction annotation).
const (
	ReduceAdd ReduceOp = iota
	ReduceMin
	ReduceMax
	ReduceOr
	ReduceAnd
)

// String names the reduction operation.
func (o ReduceOp) String() string {
	switch o {
	case ReduceAdd:
		return "add"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	case ReduceOr:
		return "or"
	case ReduceAnd:
		return "and"
	default:
		return fmt.Sprintf("ReduceOp(%d)", uint8(o))
	}
}

// --- Data consistency messages ---

// ReadReq asks the object's owner for a read copy. Prefetch marks
// PreAcquire traffic (same protocol, distinguishable in traces).
type ReadReq struct {
	Addr      vm.Addr
	Requester uint8
	Prefetch  bool
}

// ReadReply carries a read copy of the object and the identity of the
// owner (to update the requester's probable-owner hint).
type ReadReply struct {
	Addr  vm.Addr
	Owner uint8
	Data  []byte
}

// OwnReq asks for ownership plus data (conventional write miss).
type OwnReq struct {
	Addr      vm.Addr
	Requester uint8
}

// OwnReply grants ownership: object data plus the copyset the new owner
// must invalidate. Copysets travel in a two-form encoding (see the set
// encoder): the single-word inline form for sets confined to nodes
// 0–63 — byte-identical to the codec's original fixed u64 layout — and
// an escape-marked varint node list past that.
type OwnReply struct {
	Addr    vm.Addr
	Copyset nodeset.Set
	Data    []byte
}

// Invalidate tells a node to drop its copy; NewOwner updates the
// probable-owner hint.
type Invalidate struct {
	Addr     vm.Addr
	NewOwner uint8
}

// InvalidateAck acknowledges an Invalidate (the write-miss thread blocks
// until it holds the only copy, §2.3.2).
type InvalidateAck struct {
	Addr vm.Addr
}

// MigrateReq asks the current holder of a migratory object to move it.
type MigrateReq struct {
	Addr      vm.Addr
	Requester uint8
}

// MigrateReply moves a migratory object with read+write access.
type MigrateReply struct {
	Addr vm.Addr
	Data []byte
}

// UpdateBatch carries all DUQ entries destined for one node in a single
// message (§4.2: "the update mechanism automatically combines the elements
// destined for the same node into a single message"). NeedAck requests an
// UpdateAck (used when the sender must know the flush has been applied,
// e.g. before a result object's local copy is dropped).
type UpdateBatch struct {
	From    uint8
	NeedAck bool
	Entries []UpdateEntry
}

// UpdateAck acknowledges an UpdateBatch.
type UpdateAck struct {
	Count uint32
}

// CopysetQuery asks which of the listed objects the destination holds
// copies of (the prototype's dynamic copyset determination, §3.3).
type CopysetQuery struct {
	From  uint8
	Addrs []vm.Addr
}

// CopysetReply returns the subset of queried objects the sender holds.
type CopysetReply struct {
	Addrs []vm.Addr
}

// ReduceReq forwards a Fetch-and-Φ to the reduction object's fixed owner.
type ReduceReq struct {
	Addr      vm.Addr
	Off       uint32 // word offset within the object
	Op        ReduceOp
	Operand   uint32
	Requester uint8
}

// ReduceReply returns the pre-operation value (Fetch-and-Φ semantics).
type ReduceReply struct {
	Addr vm.Addr
	Old  uint32
}

// --- Synchronization messages ---

// LockAcq requests lock ownership. Each node it passes forwards it along
// its probable-owner hint and points the hint at Requester; the queue's
// tail grants or records Requester as its successor (path reversal).
type LockAcq struct {
	Lock      uint32
	Requester uint8
}

// LockSetSucc is not sent: a lock request travels to the queue's tail,
// which records its successor itself. The type stays because perf/ names
// it.
type LockSetSucc struct {
	Lock uint32
	Succ uint8
}

// LockGrant transfers lock ownership, optionally piggybacking the updates
// for data associated with the lock (AssociateDataAndSynch, §2.5).
type LockGrant struct {
	Lock    uint32
	Updates []UpdateEntry
}

// LockOwnNotify is not sent: no node tracks where a lock is, so no
// transfer is reported to its home. The type stays because perf/ names
// it.
type LockOwnNotify struct {
	Lock  uint32
	Owner uint8
}

// BarrierArrive reports a thread's arrival at a barrier to its owner node.
type BarrierArrive struct {
	Barrier uint32
	From    uint8
}

// BarrierRelease resumes threads blocked at a barrier. In the
// prototype's centralized scheme the owner sends one release per remote
// arrival and Tree is false. Under the barrier-tree scheme (§3.4 sketches
// "barrier trees and other more scalable schemes" for larger systems) one
// release per node fans out down a tree: the receiver wakes every local
// waiter and forwards the release to its share of Subtree.
type BarrierRelease struct {
	Barrier uint32
	// Tree marks a tree-scheme release (a leaf's Subtree is empty, so a
	// flag distinguishes the schemes on the wire).
	Tree bool
	// Subtree lists the nodes this receiver must release in turn.
	Subtree []uint8
}

// --- Directory metadata ---

// DirReq fetches an object directory entry from the object's home node.
type DirReq struct {
	Addr vm.Addr
}

// DirReply returns the static part of a directory entry. Group and Epoch
// carry the adaptive engine's variable-group identity and annotation
// epoch, so a freshly fetched entry starts from the home's current
// protocol generation.
type DirReply struct {
	Found bool
	Start vm.Addr
	Size  uint32
	Annot uint8
	Home  uint8
	Owner uint8
	Group vm.Addr
	Epoch uint32
}

// PhaseChange purges the accumulated sharing-relationship information for
// a stable-sharing object (§2.5), so adaptive programs can redistribute.
type PhaseChange struct {
	Addr vm.Addr
}

// ChangeAnnot switches an object's sharing annotation (and hence protocol)
// on every node (§2.5's ChangeAnnotation).
type ChangeAnnot struct {
	Addr  vm.Addr
	Annot uint8
}

// CopysetLookup asks an object's home node for the copysets it tracks —
// the "improved algorithm that uses the owner node to collect Copyset
// information" of §3.3, which the prototype devised but did not implement
// (ablation A4). One message to the home replaces the broadcast of
// CopysetQuery to every node.
type CopysetLookup struct {
	From  uint8
	Addrs []vm.Addr
}

// CopysetInfo is the home's reply to a CopysetLookup: the tracked
// copyset for each queried address, in the same order (each in the
// two-form set encoding).
type CopysetInfo struct {
	Addrs []vm.Addr
	Sets  []nodeset.Set
}

// CopysetNotify tells a writer that keeps a home-directed object's
// copyset (a cacher: it looked the copyset up, see CopysetLookup) that the
// home admitted Reader. Sent home → cacher; the cacher adds Reader to the
// copyset it keeps and answers with a promise, an empty UpdateEntry, once
// everything it flushed before is out.
type CopysetNotify struct {
	Addr   vm.Addr
	Reader uint8
}

// OwnNotify tells an object's home node that ownership moved to Owner.
// It anchors the home's probable-owner hint to the true transfer history:
// replica-to-replica hints can form cycles (each fetched its copy from
// the other), so a request chase that would revisit its own requester
// re-routes through the home, which either knows better or parks the
// request until the in-flight transfer's notification lands.
type OwnNotify struct {
	Addr  vm.Addr
	Owner uint8
}

// --- Adaptive protocol engine (internal/adapt) ---

// AdaptPropose asks an object's home node to switch the object's sharing
// annotation. Proposals are formed at release points from a node's local
// access profile; the home serializes them (first fresh proposal per
// epoch wins) so concurrent advice from different nodes cannot interleave
// switches. Epoch is the proposer's view of the object's annotation
// epoch — a proposal formed before an earlier switch is stale and
// dropped. Events carries the proposer's evidence mass; Urgent marks a
// correctness switch (a write faulted on a non-writable protocol, a
// Fetch-and-Φ hit a non-reduction object) that the home must honour even
// when the perf hysteresis would reject it.
type AdaptPropose struct {
	Addr   vm.Addr
	Annot  uint8
	Epoch  uint32
	From   uint8
	Events uint32
	Urgent bool
}

// AdaptCommit broadcasts a committed annotation switch from the object's
// home to every node. Receivers with delayed writes still enqueued defer
// the switch to their next release flush (directory.Entry.PendingAnnot);
// everyone else applies it immediately.
type AdaptCommit struct {
	Addr  vm.Addr
	Annot uint8
	Epoch uint32
}

// --- Lazy release consistency (internal/lrc) ---
//
// Under the lazy engine a release propagates nothing: it closes an
// interval on the releasing node and the interval's write notices travel
// on the next synchronization message the happens-before order requires
// (a lock grant, a barrier release). Diffs move only on demand, pulled by
// the acquirer with a request/response pair. Vector timestamps are dense
// []uint32 slices indexed by node id.

// LrcInterval is one write-notice interval: at its close, node Node had
// buffered modifications to exactly the objects in Addrs. Receiving the
// notice obliges a node holding a copy of any of those objects to fetch
// the interval's diffs before using the copy after its next acquire.
type LrcInterval struct {
	Node  uint8
	Ivl   uint32
	Addrs []vm.Addr
}

// LrcRecord is one stored diff: the writes one node made to one object
// during its closed intervals [First, Last], as a word diff against the
// twin (Diff) or a full snapshot (Full; currently only post-run
// materialization produces these). VT is the writer's vector timestamp at
// the close of interval Last — the happens-before order diffs from
// different writers must be applied in.
type LrcRecord struct {
	First uint32
	Last  uint32
	VT    []uint32
	Diff  []byte
	Full  []byte
}

// LrcDiffSet carries one object's records inside an LrcDiffResp.
type LrcDiffSet struct {
	Addr    vm.Addr
	Records []LrcRecord
}

// LrcLockAcq is LockAcq under the lazy engine: the requester's vector
// timestamp rides along to the queue's tail, the eventual granter, so it
// can send exactly the write notices the requester has not seen.
type LrcLockAcq struct {
	Lock      uint32
	Requester uint8
	VT        []uint32
}

// LrcLockSetSucc is LockSetSucc's lazy form, and is not sent either: a
// successor's vector timestamp reaches the tail on its request. The type
// stays because perf/ names it.
type LrcLockSetSucc struct {
	Lock uint32
	Succ uint8
	VT   []uint32
}

// LrcLockGrant is the acquire-with-notices grant: lock ownership plus the
// releaser's vector timestamp and the write notices between the
// acquirer's timestamp and the releaser's. Updates piggybacks data for
// objects associated with the lock whose protocols are not lazily
// managed (migratory critical-section data still moves with the lock).
type LrcLockGrant struct {
	Lock    uint32
	VT      []uint32
	Notices []LrcInterval
	Updates []UpdateEntry
}

// LrcBarrierArrive reports a barrier arrival under the lazy engine,
// carrying the arriver's vector timestamp, the write notices the barrier
// master may not have seen, and the arriver's applied floors (per writer:
// the lowest interval any of its copies still lacks), from which the
// master computes the garbage-collection floor.
type LrcBarrierArrive struct {
	Barrier uint32
	From    uint8
	VT      []uint32
	Floors  []uint32
	Notices []LrcInterval
}

// LrcBarrierRelease resumes threads blocked at a barrier under the lazy
// engine, carrying the merged vector timestamp and the write notices the
// destination is missing. Departing the barrier is an acquire: the
// receiver absorbs the notices and refreshes its stale copies on demand.
type LrcBarrierRelease struct {
	Barrier uint32
	Tree    bool
	Subtree []uint8
	VT      []uint32
	Notices []LrcInterval
}

// LrcDiffReq asks a writer for the diffs of its closed intervals on the
// listed objects: for Addrs[i], every record with Last > After[i]. The
// writer materializes pending diffs lazily at this first remote request.
// Token routes the response to the requesting thread.
type LrcDiffReq struct {
	Requester uint8
	Token     uint32
	Addrs     []vm.Addr
	After     []uint32
}

// LrcDiffResp answers an LrcDiffReq with the requested records per object.
type LrcDiffResp struct {
	Token uint32
	Sets  []LrcDiffSet
}

// LrcFetchReq asks an object's home node for a base copy (a node that
// never held the object needs one before diffs mean anything).
type LrcFetchReq struct {
	Addr      vm.Addr
	Requester uint8
	Token     uint32
}

// LrcFetchResp returns a base copy plus, per writer, the highest closed
// interval already incorporated in it; the fetcher pulls the rest as
// diffs.
type LrcFetchResp struct {
	Addr    vm.Addr
	Token   uint32
	Applied []uint32
	Data    []byte
}

// LrcGC broadcasts the garbage-collection floor the barrier master
// computed from every arrival's applied floors: node j's diff records for
// intervals <= Floors[j] have been incorporated into every surviving
// copy (or superseded for every future fetch) and can be discarded, along
// with the matching write-notice bookkeeping.
type LrcGC struct {
	Floors []uint32
}

// --- Batching envelope ---

// Batch coalesces protocol messages bound for one destination into a
// single transport send: a release flush's update plus the lock grant
// that follows it, a barrier master's updates plus its releases, a lazy
// barrier release plus the garbage-collection floor — anything one
// protocol operation fans out to the same node. The transport counts a
// batch as ONE send (one send-path CPU charge plus a reduced per-rider
// charge, one wire header) while the per-kind statistics still attribute
// every inner message; the receiving dispatcher unpacks the envelope and
// handles the messages in order, so an envelope preserves exactly the
// per-destination FIFO order the unbatched sends would have had.
//
// Batches never nest: Marshal panics on (and Unmarshal rejects) a Batch
// inside a Batch.
type Batch struct {
	Msgs []Message
}

// --- Message passing baseline ---

// MPData is a raw tagged payload for the hand-coded message-passing
// programs (the paper's "DM" versions).
type MPData struct {
	Tag     uint32
	Payload []byte
}

func (ReadReq) Kind() Kind        { return KindReadReq }
func (ReadReply) Kind() Kind      { return KindReadReply }
func (OwnReq) Kind() Kind         { return KindOwnReq }
func (OwnReply) Kind() Kind       { return KindOwnReply }
func (Invalidate) Kind() Kind     { return KindInvalidate }
func (InvalidateAck) Kind() Kind  { return KindInvalidateAck }
func (MigrateReq) Kind() Kind     { return KindMigrateReq }
func (MigrateReply) Kind() Kind   { return KindMigrateReply }
func (UpdateBatch) Kind() Kind    { return KindUpdateBatch }
func (UpdateAck) Kind() Kind      { return KindUpdateAck }
func (CopysetQuery) Kind() Kind   { return KindCopysetQuery }
func (CopysetReply) Kind() Kind   { return KindCopysetReply }
func (ReduceReq) Kind() Kind      { return KindReduceReq }
func (ReduceReply) Kind() Kind    { return KindReduceReply }
func (LockAcq) Kind() Kind        { return KindLockAcq }
func (LockSetSucc) Kind() Kind    { return KindLockSetSucc }
func (LockOwnNotify) Kind() Kind  { return KindLockOwnNotify }
func (LockGrant) Kind() Kind      { return KindLockGrant }
func (BarrierArrive) Kind() Kind  { return KindBarrierArrive }
func (BarrierRelease) Kind() Kind { return KindBarrierRelease }
func (DirReq) Kind() Kind         { return KindDirReq }
func (DirReply) Kind() Kind       { return KindDirReply }
func (PhaseChange) Kind() Kind    { return KindPhaseChange }
func (ChangeAnnot) Kind() Kind    { return KindChangeAnnot }
func (CopysetLookup) Kind() Kind  { return KindCopysetLookup }
func (CopysetInfo) Kind() Kind    { return KindCopysetInfo }
func (CopysetNotify) Kind() Kind  { return KindCopysetNotify }
func (OwnNotify) Kind() Kind      { return KindOwnNotify }
func (AdaptPropose) Kind() Kind   { return KindAdaptPropose }
func (AdaptCommit) Kind() Kind    { return KindAdaptCommit }
func (MPData) Kind() Kind         { return KindMPData }

func (LrcLockAcq) Kind() Kind        { return KindLrcLockAcq }
func (LrcLockSetSucc) Kind() Kind    { return KindLrcLockSetSucc }
func (LrcLockGrant) Kind() Kind      { return KindLrcLockGrant }
func (LrcBarrierArrive) Kind() Kind  { return KindLrcBarrierArrive }
func (LrcBarrierRelease) Kind() Kind { return KindLrcBarrierRelease }
func (LrcDiffReq) Kind() Kind        { return KindLrcDiffReq }
func (LrcDiffResp) Kind() Kind       { return KindLrcDiffResp }
func (LrcFetchReq) Kind() Kind       { return KindLrcFetchReq }
func (LrcFetchResp) Kind() Kind      { return KindLrcFetchResp }
func (LrcGC) Kind() Kind             { return KindLrcGC }
func (Batch) Kind() Kind             { return KindBatch }

// KindOf returns msg's kind, or KindInvalid for a type this package does
// not define. It is msg.Kind() without the call through the interface:
// that call makes msg escape, so an encoder taking the kind from it would
// move every message literal its callers build to the heap.
func KindOf(msg Message) Kind {
	switch msg.(type) {
	case ReadReq:
		return KindReadReq
	case ReadReply:
		return KindReadReply
	case OwnReq:
		return KindOwnReq
	case OwnReply:
		return KindOwnReply
	case Invalidate:
		return KindInvalidate
	case InvalidateAck:
		return KindInvalidateAck
	case MigrateReq:
		return KindMigrateReq
	case MigrateReply:
		return KindMigrateReply
	case UpdateBatch:
		return KindUpdateBatch
	case UpdateAck:
		return KindUpdateAck
	case CopysetQuery:
		return KindCopysetQuery
	case CopysetReply:
		return KindCopysetReply
	case ReduceReq:
		return KindReduceReq
	case ReduceReply:
		return KindReduceReply
	case LockAcq:
		return KindLockAcq
	case LockSetSucc:
		return KindLockSetSucc
	case LockOwnNotify:
		return KindLockOwnNotify
	case LockGrant:
		return KindLockGrant
	case BarrierArrive:
		return KindBarrierArrive
	case BarrierRelease:
		return KindBarrierRelease
	case DirReq:
		return KindDirReq
	case DirReply:
		return KindDirReply
	case PhaseChange:
		return KindPhaseChange
	case ChangeAnnot:
		return KindChangeAnnot
	case CopysetLookup:
		return KindCopysetLookup
	case CopysetInfo:
		return KindCopysetInfo
	case CopysetNotify:
		return KindCopysetNotify
	case OwnNotify:
		return KindOwnNotify
	case AdaptPropose:
		return KindAdaptPropose
	case AdaptCommit:
		return KindAdaptCommit
	case MPData:
		return KindMPData
	case LrcLockAcq:
		return KindLrcLockAcq
	case LrcLockSetSucc:
		return KindLrcLockSetSucc
	case LrcLockGrant:
		return KindLrcLockGrant
	case LrcBarrierArrive:
		return KindLrcBarrierArrive
	case LrcBarrierRelease:
		return KindLrcBarrierRelease
	case LrcDiffReq:
		return KindLrcDiffReq
	case LrcDiffResp:
		return KindLrcDiffResp
	case LrcFetchReq:
		return KindLrcFetchReq
	case LrcFetchResp:
		return KindLrcFetchResp
	case LrcGC:
		return KindLrcGC
	case Batch:
		return KindBatch
	}
	return KindInvalid
}

// ErrCorrupt is returned by Unmarshal for undecodable input.
var ErrCorrupt = errors.New("wire: corrupt message")

// errUnknownType is what the encoders panic with on a Message type this
// package does not define. A formatted panic naming the type would make
// msg escape on every encode.
var errUnknownType = errors.New("wire: message of a type this package does not define")

type encoder struct{ b []byte }

func (e *encoder) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *encoder) addrs(v []vm.Addr) {
	e.u32(uint32(len(v)))
	for _, a := range v {
		e.u32(uint32(a))
	}
}
func (e *encoder) updates(v []UpdateEntry) {
	e.u32(uint32(len(v)))
	for _, u := range v {
		e.u32(uint32(u.Addr))
		e.u32(u.Size)
		e.boolean(u.Full != nil)
		if u.Full != nil {
			e.bytes(u.Full)
		} else {
			e.bytes(u.Diff)
		}
	}
}

// setEscape is the 8-byte marker opening a copyset's extended form.
// The inline form is the set's single bitmap word, which (for any set a
// real machine produces) is distinguishable because a ≤64-node machine
// never fills all 64 bits AND escapes the inline form for the one set
// that would (nodeset.Set.Inline refuses the all-ones word).
const setEscape = ^uint64(0)

// maxWireNode bounds a decoded copyset member: wire node ids are uint8
// everywhere else, so anything past one overflow word's reach is
// corruption, not a bigger machine.
const maxWireNode = 1 << 16

// set encodes a copyset: the inline bitmap word for sets confined to
// nodes 0–63 (byte-identical to the original fixed-u64 layout), or the
// escape marker followed by a uvarint member count and uvarint node
// ids for anything larger. Both forms encode without allocating (the
// member walk is a manual word scan, not a ForEach closure, so the
// encoder never escapes).
func (e *encoder) set(s nodeset.Set) {
	if lo, ok := s.Inline(); ok {
		e.u64(lo)
		return
	}
	e.u64(setEscape)
	e.b = binary.AppendUvarint(e.b, uint64(s.Count()))
	for wi := 0; wi < s.Words(); wi++ {
		base := wi * 64
		for w := s.Word(wi); w != 0; w &= w - 1 {
			e.b = binary.AppendUvarint(e.b, uint64(base+bits.TrailingZeros64(w)))
		}
	}
}

func (e *encoder) csets(v []nodeset.Set) {
	e.u32(uint32(len(v)))
	for _, s := range v {
		e.set(s)
	}
}

func (e *encoder) u32s(v []uint32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(x)
	}
}
func (e *encoder) intervals(v []LrcInterval) {
	e.u32(uint32(len(v)))
	for _, iv := range v {
		e.u8(iv.Node)
		e.u32(iv.Ivl)
		e.addrs(iv.Addrs)
	}
}
func (e *encoder) records(v []LrcRecord) {
	e.u32(uint32(len(v)))
	for _, r := range v {
		e.u32(r.First)
		e.u32(r.Last)
		e.u32s(r.VT)
		e.boolean(r.Full != nil)
		if r.Full != nil {
			e.bytes(r.Full)
		} else {
			e.bytes(r.Diff)
		}
	}
}
func (e *encoder) diffSets(v []LrcDiffSet) {
	e.u32(uint32(len(v)))
	for _, s := range v {
		e.u32(uint32(s.Addr))
		e.records(s.Records)
	}
}

type decoder struct {
	b   []byte
	err error
	// borrow makes bytes/bytes8 return views into b instead of copies
	// (UnmarshalView); the caller owns b's lifetime.
	borrow bool
	// The message's arenas: its uint32 lists (vector timestamps, floors),
	// address lists and diff records are cut from these, one array per
	// element type. A list that holds several sublists (an interval
	// list's addresses, a diff response's records and their timestamps)
	// sizes its arenas exactly by scanning its headers first; a lone list
	// finds its arena empty and gets an array of its own. Either way every
	// cut has len == cap, so appending to one decoded slice can never
	// write into its neighbour, and none of it aliases b.
	u32Arena  []uint32
	addrArena []vm.Addr
	recArena  []LrcRecord
}

// cut returns the next n elements of *arena, capacity-clipped, or a new
// slice of n when the arena holds fewer (nil when n is 0).
func cut[T any](arena *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if len(*arena) < n {
		return make([]T, n)
	}
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// skip advances past n bytes.
func (d *decoder) skip(n int) {
	if d.err != nil || n < 0 || len(d.b) < n {
		d.fail()
		return
	}
	d.b = d.b[n:]
}
func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}
func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}
func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
func (d *decoder) boolean() bool { return d.u8() != 0 }
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || len(d.b) < n {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	var v []byte
	if d.borrow {
		v = d.b[:n:n]
	} else {
		v = append([]byte(nil), d.b[:n]...)
	}
	d.b = d.b[n:]
	return v
}
func (d *decoder) addrs() []vm.Addr {
	n := int(d.u32())
	if d.err != nil || len(d.b) < 4*n {
		d.fail()
		return nil
	}
	out := cut(&d.addrArena, n)
	for i := range out {
		out[i] = vm.Addr(binary.LittleEndian.Uint32(d.b[4*i:]))
	}
	d.b = d.b[4*n:]
	return out
}
func (d *decoder) bytes8() []uint8 {
	n := int(d.u32())
	if d.err != nil || len(d.b) < n {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	var v []uint8
	if d.borrow {
		v = d.b[:n:n]
	} else {
		v = append([]uint8(nil), d.b[:n]...)
	}
	d.b = d.b[n:]
	return v
}
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}
func (d *decoder) set() nodeset.Set {
	w := d.u64()
	if d.err != nil {
		return nodeset.Set{}
	}
	if w != setEscape {
		return nodeset.FromWord(w)
	}
	n := int(d.uvarint())
	if d.err != nil || n > len(d.b) { // each member id is ≥ 1 byte
		d.fail()
		return nodeset.Set{}
	}
	var s nodeset.Set
	for i := 0; i < n; i++ {
		id := d.uvarint()
		if d.err != nil || id >= maxWireNode {
			d.fail()
			return nodeset.Set{}
		}
		s = s.Add(int(id))
	}
	return s
}
func (d *decoder) csets() []nodeset.Set {
	n := int(d.u32())
	if d.err != nil || len(d.b) < 8*n { // each set is ≥ 8 bytes
		d.fail()
		return nil
	}
	out := make([]nodeset.Set, n)
	for i := range out {
		out[i] = d.set()
	}
	return out
}
func (d *decoder) updates() []UpdateEntry {
	n := int(d.u32())
	if d.err != nil || n > len(d.b) { // each entry is ≥ 13 bytes
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]UpdateEntry, 0, n)
	for i := 0; i < n; i++ {
		var u UpdateEntry
		u.Addr = vm.Addr(d.u32())
		u.Size = d.u32()
		full := d.boolean()
		payload := d.bytes()
		if full {
			u.Full = payload
		} else {
			u.Diff = payload
		}
		out = append(out, u)
	}
	return out
}

func (d *decoder) u32s() []uint32 {
	n := int(d.u32())
	if d.err != nil || len(d.b) < 4*n {
		d.fail()
		return nil
	}
	out := cut(&d.u32Arena, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(d.b[4*i:])
	}
	d.b = d.b[4*n:]
	return out
}

// intervals decodes an interval list, cutting every interval's
// addresses from one arena sized by a walk over the interval headers.
func (d *decoder) intervals() []LrcInterval {
	n := int(d.u32())
	if d.err != nil || n > len(d.b) { // each interval is >= 9 bytes
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	scan, addrs := decoder{b: d.b}, 0
	for i := 0; i < n && scan.err == nil; i++ {
		scan.skip(5) // node, interval
		k := int(scan.u32())
		scan.skip(4 * k)
		addrs += k
	}
	if scan.err == nil {
		d.addrArena = make([]vm.Addr, addrs)
	}
	out := make([]LrcInterval, n)
	for i := range out {
		out[i].Node = d.u8()
		out[i].Ivl = d.u32()
		out[i].Addrs = d.addrs()
	}
	return out
}
func (d *decoder) records() []LrcRecord {
	n := int(d.u32())
	if d.err != nil || n > len(d.b) { // each record is >= 17 bytes
		d.fail()
		return nil
	}
	out := cut(&d.recArena, n)
	for i := range out {
		r := &out[i]
		r.First = d.u32()
		r.Last = d.u32()
		r.VT = d.u32s()
		full := d.boolean()
		payload := d.bytes()
		if full {
			r.Full = payload
		} else {
			r.Diff = payload
		}
	}
	return out
}

// diffSets decodes a diff response's sets. A walk over the record
// headers first sizes the record and timestamp arenas, so every set's
// records, and every record's timestamp, come from one array each.
func (d *decoder) diffSets() []LrcDiffSet {
	n := int(d.u32())
	if d.err != nil || n > len(d.b) { // each set is >= 8 bytes
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	scan, recs, words := decoder{b: d.b}, 0, 0
	for i := 0; i < n && scan.err == nil; i++ {
		scan.skip(4) // address
		k := int(scan.u32())
		for r := 0; r < k && scan.err == nil; r++ {
			scan.skip(8) // first, last
			w := int(scan.u32())
			scan.skip(4*w + 1) // timestamp, full flag
			scan.skip(int(scan.u32()))
			words += w
		}
		recs += k
	}
	if scan.err == nil {
		d.recArena = make([]LrcRecord, recs)
		d.u32Arena = make([]uint32, words)
	}
	out := make([]LrcDiffSet, n)
	for i := range out {
		out[i].Addr = vm.Addr(d.u32())
		out[i].Records = d.records()
	}
	return out
}

// Marshal encodes msg to its wire form (kind byte plus payload). It
// allocates exactly once, sized by Size; the zero-allocation fast path
// is AppendTo with a reused (or pooled, see GetBuf) buffer.
func Marshal(msg Message) []byte {
	return AppendTo(make([]byte, 0, Size(msg)), msg)
}

// AppendTo appends msg's wire form (kind byte plus payload) to buf and
// returns the extended slice, exactly as append does. When buf has
// Size(msg) spare capacity — a pooled buffer in steady state — the
// encode performs no allocation at all.
func AppendTo(buf []byte, msg Message) []byte {
	e := encoder{b: buf}
	e.u8(uint8(KindOf(msg)))
	switch m := msg.(type) {
	case ReadReq:
		e.u32(uint32(m.Addr))
		e.u8(m.Requester)
		e.boolean(m.Prefetch)
	case ReadReply:
		e.u32(uint32(m.Addr))
		e.u8(m.Owner)
		e.bytes(m.Data)
	case OwnReq:
		e.u32(uint32(m.Addr))
		e.u8(m.Requester)
	case OwnReply:
		e.u32(uint32(m.Addr))
		e.set(m.Copyset)
		e.bytes(m.Data)
	case Invalidate:
		e.u32(uint32(m.Addr))
		e.u8(m.NewOwner)
	case InvalidateAck:
		e.u32(uint32(m.Addr))
	case MigrateReq:
		e.u32(uint32(m.Addr))
		e.u8(m.Requester)
	case MigrateReply:
		e.u32(uint32(m.Addr))
		e.bytes(m.Data)
	case UpdateBatch:
		e.u8(m.From)
		e.boolean(m.NeedAck)
		e.updates(m.Entries)
	case UpdateAck:
		e.u32(m.Count)
	case CopysetQuery:
		e.u8(m.From)
		e.addrs(m.Addrs)
	case CopysetReply:
		e.addrs(m.Addrs)
	case ReduceReq:
		e.u32(uint32(m.Addr))
		e.u32(m.Off)
		e.u8(uint8(m.Op))
		e.u32(m.Operand)
		e.u8(m.Requester)
	case ReduceReply:
		e.u32(uint32(m.Addr))
		e.u32(m.Old)
	case LockAcq:
		e.u32(m.Lock)
		e.u8(m.Requester)
	case LockSetSucc:
		e.u32(m.Lock)
		e.u8(m.Succ)
	case LockOwnNotify:
		e.u32(m.Lock)
		e.u8(m.Owner)
	case LockGrant:
		e.u32(m.Lock)
		e.updates(m.Updates)
	case BarrierArrive:
		e.u32(m.Barrier)
		e.u8(m.From)
	case BarrierRelease:
		e.u32(m.Barrier)
		e.boolean(m.Tree)
		e.u32(uint32(len(m.Subtree)))
		e.b = append(e.b, m.Subtree...)
	case DirReq:
		e.u32(uint32(m.Addr))
	case DirReply:
		e.boolean(m.Found)
		e.u32(uint32(m.Start))
		e.u32(m.Size)
		e.u8(m.Annot)
		e.u8(m.Home)
		e.u8(m.Owner)
		e.u32(uint32(m.Group))
		e.u32(m.Epoch)
	case PhaseChange:
		e.u32(uint32(m.Addr))
	case ChangeAnnot:
		e.u32(uint32(m.Addr))
		e.u8(m.Annot)
	case CopysetLookup:
		e.u8(m.From)
		e.addrs(m.Addrs)
	case CopysetInfo:
		e.addrs(m.Addrs)
		e.csets(m.Sets)
	case CopysetNotify:
		e.u32(uint32(m.Addr))
		e.u8(m.Reader)
	case OwnNotify:
		e.u32(uint32(m.Addr))
		e.u8(m.Owner)
	case AdaptPropose:
		e.u32(uint32(m.Addr))
		e.u8(m.Annot)
		e.u32(m.Epoch)
		e.u8(m.From)
		e.u32(m.Events)
		e.boolean(m.Urgent)
	case AdaptCommit:
		e.u32(uint32(m.Addr))
		e.u8(m.Annot)
		e.u32(m.Epoch)
	case MPData:
		e.u32(m.Tag)
		e.bytes(m.Payload)
	case LrcLockAcq:
		e.u32(m.Lock)
		e.u8(m.Requester)
		e.u32s(m.VT)
	case LrcLockSetSucc:
		e.u32(m.Lock)
		e.u8(m.Succ)
		e.u32s(m.VT)
	case LrcLockGrant:
		e.u32(m.Lock)
		e.u32s(m.VT)
		e.intervals(m.Notices)
		e.updates(m.Updates)
	case LrcBarrierArrive:
		e.u32(m.Barrier)
		e.u8(m.From)
		e.u32s(m.VT)
		e.u32s(m.Floors)
		e.intervals(m.Notices)
	case LrcBarrierRelease:
		e.u32(m.Barrier)
		e.boolean(m.Tree)
		e.u32(uint32(len(m.Subtree)))
		e.b = append(e.b, m.Subtree...)
		e.u32s(m.VT)
		e.intervals(m.Notices)
	case LrcDiffReq:
		e.u8(m.Requester)
		e.u32(m.Token)
		e.addrs(m.Addrs)
		e.u32s(m.After)
	case LrcDiffResp:
		e.u32(m.Token)
		e.diffSets(m.Sets)
	case LrcFetchReq:
		e.u32(uint32(m.Addr))
		e.u8(m.Requester)
		e.u32(m.Token)
	case LrcFetchResp:
		e.u32(uint32(m.Addr))
		e.u32(m.Token)
		e.u32s(m.Applied)
		e.bytes(m.Data)
	case LrcGC:
		e.u32s(m.Floors)
	case Batch:
		e.u32(uint32(len(m.Msgs)))
		for _, sub := range m.Msgs {
			if _, nested := sub.(Batch); nested {
				panic("wire: batch inside a batch")
			}
			e.u32(uint32(Size(sub)))
			e.b = AppendTo(e.b, sub)
		}
	default:
		panic(errUnknownType)
	}
	return e.b
}

// Unmarshal decodes a message produced by Marshal. The returned message
// owns all of its byte payloads (deep copies); b may be reused freely.
func Unmarshal(b []byte) (Message, error) {
	return unmarshal(b, false)
}

// UnmarshalView decodes like Unmarshal but byte payloads (update data,
// diffs, read-reply images, subtree lists) are views into b, not copies —
// the zero-copy receive path. The caller owns b's lifetime: the message
// and anything extracted from it must not outlive b unless re-owned with
// Own or OwnEntry first.
func UnmarshalView(b []byte) (Message, error) {
	return unmarshal(b, true)
}

func unmarshal(b []byte, borrow bool) (Message, error) {
	d := &decoder{b: b, borrow: borrow}
	kind := Kind(d.u8())
	var msg Message
	switch kind {
	case KindReadReq:
		msg = ReadReq{Addr: vm.Addr(d.u32()), Requester: d.u8(), Prefetch: d.boolean()}
	case KindReadReply:
		msg = ReadReply{Addr: vm.Addr(d.u32()), Owner: d.u8(), Data: d.bytes()}
	case KindOwnReq:
		msg = OwnReq{Addr: vm.Addr(d.u32()), Requester: d.u8()}
	case KindOwnReply:
		msg = OwnReply{Addr: vm.Addr(d.u32()), Copyset: d.set(), Data: d.bytes()}
	case KindInvalidate:
		msg = Invalidate{Addr: vm.Addr(d.u32()), NewOwner: d.u8()}
	case KindInvalidateAck:
		msg = InvalidateAck{Addr: vm.Addr(d.u32())}
	case KindMigrateReq:
		msg = MigrateReq{Addr: vm.Addr(d.u32()), Requester: d.u8()}
	case KindMigrateReply:
		msg = MigrateReply{Addr: vm.Addr(d.u32()), Data: d.bytes()}
	case KindUpdateBatch:
		msg = UpdateBatch{From: d.u8(), NeedAck: d.boolean(), Entries: d.updates()}
	case KindUpdateAck:
		msg = UpdateAck{Count: d.u32()}
	case KindCopysetQuery:
		msg = CopysetQuery{From: d.u8(), Addrs: d.addrs()}
	case KindCopysetReply:
		msg = CopysetReply{Addrs: d.addrs()}
	case KindReduceReq:
		msg = ReduceReq{Addr: vm.Addr(d.u32()), Off: d.u32(), Op: ReduceOp(d.u8()), Operand: d.u32(), Requester: d.u8()}
	case KindReduceReply:
		msg = ReduceReply{Addr: vm.Addr(d.u32()), Old: d.u32()}
	case KindLockAcq:
		msg = LockAcq{Lock: d.u32(), Requester: d.u8()}
	case KindLockSetSucc:
		msg = LockSetSucc{Lock: d.u32(), Succ: d.u8()}
	case KindLockOwnNotify:
		msg = LockOwnNotify{Lock: d.u32(), Owner: d.u8()}
	case KindLockGrant:
		msg = LockGrant{Lock: d.u32(), Updates: d.updates()}
	case KindBarrierArrive:
		msg = BarrierArrive{Barrier: d.u32(), From: d.u8()}
	case KindBarrierRelease:
		msg = BarrierRelease{Barrier: d.u32(), Tree: d.boolean(), Subtree: d.bytes8()}
	case KindDirReq:
		msg = DirReq{Addr: vm.Addr(d.u32())}
	case KindDirReply:
		msg = DirReply{Found: d.boolean(), Start: vm.Addr(d.u32()), Size: d.u32(), Annot: d.u8(),
			Home: d.u8(), Owner: d.u8(), Group: vm.Addr(d.u32()), Epoch: d.u32()}
	case KindPhaseChange:
		msg = PhaseChange{Addr: vm.Addr(d.u32())}
	case KindChangeAnnot:
		msg = ChangeAnnot{Addr: vm.Addr(d.u32()), Annot: d.u8()}
	case KindCopysetLookup:
		msg = CopysetLookup{From: d.u8(), Addrs: d.addrs()}
	case KindCopysetInfo:
		msg = CopysetInfo{Addrs: d.addrs(), Sets: d.csets()}
	case KindCopysetNotify:
		msg = CopysetNotify{Addr: vm.Addr(d.u32()), Reader: d.u8()}
	case KindOwnNotify:
		msg = OwnNotify{Addr: vm.Addr(d.u32()), Owner: d.u8()}
	case KindAdaptPropose:
		msg = AdaptPropose{Addr: vm.Addr(d.u32()), Annot: d.u8(), Epoch: d.u32(),
			From: d.u8(), Events: d.u32(), Urgent: d.boolean()}
	case KindAdaptCommit:
		msg = AdaptCommit{Addr: vm.Addr(d.u32()), Annot: d.u8(), Epoch: d.u32()}
	case KindMPData:
		msg = MPData{Tag: d.u32(), Payload: d.bytes()}
	case KindLrcLockAcq:
		msg = LrcLockAcq{Lock: d.u32(), Requester: d.u8(), VT: d.u32s()}
	case KindLrcLockSetSucc:
		msg = LrcLockSetSucc{Lock: d.u32(), Succ: d.u8(), VT: d.u32s()}
	case KindLrcLockGrant:
		msg = LrcLockGrant{Lock: d.u32(), VT: d.u32s(),
			Notices: d.intervals(), Updates: d.updates()}
	case KindLrcBarrierArrive:
		msg = LrcBarrierArrive{Barrier: d.u32(), From: d.u8(), VT: d.u32s(),
			Floors: d.u32s(), Notices: d.intervals()}
	case KindLrcBarrierRelease:
		msg = LrcBarrierRelease{Barrier: d.u32(), Tree: d.boolean(), Subtree: d.bytes8(),
			VT: d.u32s(), Notices: d.intervals()}
	case KindLrcDiffReq:
		msg = LrcDiffReq{Requester: d.u8(), Token: d.u32(), Addrs: d.addrs(), After: d.u32s()}
	case KindLrcDiffResp:
		msg = LrcDiffResp{Token: d.u32(), Sets: d.diffSets()}
	case KindLrcFetchReq:
		msg = LrcFetchReq{Addr: vm.Addr(d.u32()), Requester: d.u8(), Token: d.u32()}
	case KindLrcFetchResp:
		msg = LrcFetchResp{Addr: vm.Addr(d.u32()), Token: d.u32(), Applied: d.u32s(), Data: d.bytes()}
	case KindLrcGC:
		msg = LrcGC{Floors: d.u32s()}
	case KindBatch:
		n := int(d.u32())
		if d.err != nil || n > len(d.b) { // each rider is >= 5 bytes framed
			d.fail()
			break
		}
		msgs := make([]Message, 0, n)
		for i := 0; i < n; i++ {
			ln := int(d.u32())
			if d.err != nil || ln < 1 || len(d.b) < ln {
				d.fail()
				break
			}
			sub, err := unmarshal(d.b[:ln], d.borrow)
			if err != nil {
				return nil, fmt.Errorf("%w: batch rider %d: %v", ErrCorrupt, i, err)
			}
			if _, nested := sub.(Batch); nested {
				return nil, fmt.Errorf("%w: batch inside a batch", ErrCorrupt)
			}
			d.b = d.b[ln:]
			msgs = append(msgs, sub)
		}
		msg = Batch{Msgs: msgs}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v payload", d.err, kind)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %v", ErrCorrupt, len(d.b), kind)
	}
	return msg, nil
}

// --- Computed sizes ---
//
// Size is computed directly from the message fields, never by encoding:
// the simulated network sizes every message it carries, and a Marshal
// per Size would dominate the send path. The size helpers mirror the
// encoder helpers one for one; the wire tests assert
// Size(msg) == len(Marshal(msg)) for every kind over randomized
// messages, so the two cannot drift apart silently.

func sizeBytes(b []byte) int { return 4 + len(b) }
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
func sizeSet(s nodeset.Set) int {
	if _, ok := s.Inline(); ok {
		return 8
	}
	n := 8 + uvarintLen(uint64(s.Count()))
	for wi := 0; wi < s.Words(); wi++ {
		base := wi * 64
		for w := s.Word(wi); w != 0; w &= w - 1 {
			n += uvarintLen(uint64(base + bits.TrailingZeros64(w)))
		}
	}
	return n
}
func sizeSets(v []nodeset.Set) int {
	n := 4
	for _, s := range v {
		n += sizeSet(s)
	}
	return n
}
func sizeAddrs(v []vm.Addr) int { return 4 + 4*len(v) }
func sizeU32s(v []uint32) int   { return 4 + 4*len(v) }
func sizeEntry(u *UpdateEntry) int {
	if u.Full != nil {
		return 4 + 4 + 1 + sizeBytes(u.Full)
	}
	return 4 + 4 + 1 + sizeBytes(u.Diff)
}
func sizeUpdates(v []UpdateEntry) int {
	n := 4
	for i := range v {
		n += sizeEntry(&v[i])
	}
	return n
}
func sizeIntervals(v []LrcInterval) int {
	n := 4
	for i := range v {
		n += 1 + 4 + sizeAddrs(v[i].Addrs)
	}
	return n
}
func sizeRecords(v []LrcRecord) int {
	n := 4
	for i := range v {
		r := &v[i]
		n += 4 + 4 + sizeU32s(r.VT) + 1
		if r.Full != nil {
			n += sizeBytes(r.Full)
		} else {
			n += sizeBytes(r.Diff)
		}
	}
	return n
}
func sizeDiffSets(v []LrcDiffSet) int {
	n := 4
	for i := range v {
		n += 4 + sizeRecords(v[i].Records)
	}
	return n
}

// Size returns the encoded length of msg in bytes (kind byte plus
// payload), computed without encoding anything.
func Size(msg Message) int {
	const kind = 1
	switch m := msg.(type) {
	case ReadReq:
		return kind + 4 + 1 + 1
	case ReadReply:
		return kind + 4 + 1 + sizeBytes(m.Data)
	case OwnReq:
		return kind + 4 + 1
	case OwnReply:
		return kind + 4 + sizeSet(m.Copyset) + sizeBytes(m.Data)
	case Invalidate:
		return kind + 4 + 1
	case InvalidateAck:
		return kind + 4
	case MigrateReq:
		return kind + 4 + 1
	case MigrateReply:
		return kind + 4 + sizeBytes(m.Data)
	case UpdateBatch:
		return kind + 1 + 1 + sizeUpdates(m.Entries)
	case UpdateAck:
		return kind + 4
	case CopysetQuery:
		return kind + 1 + sizeAddrs(m.Addrs)
	case CopysetReply:
		return kind + sizeAddrs(m.Addrs)
	case ReduceReq:
		return kind + 4 + 4 + 1 + 4 + 1
	case ReduceReply:
		return kind + 4 + 4
	case LockAcq:
		return kind + 4 + 1
	case LockSetSucc:
		return kind + 4 + 1
	case LockOwnNotify:
		return kind + 4 + 1
	case LockGrant:
		return kind + 4 + sizeUpdates(m.Updates)
	case BarrierArrive:
		return kind + 4 + 1
	case BarrierRelease:
		return kind + 4 + 1 + 4 + len(m.Subtree)
	case DirReq:
		return kind + 4
	case DirReply:
		return kind + 1 + 4 + 4 + 1 + 1 + 1 + 4 + 4
	case PhaseChange:
		return kind + 4
	case ChangeAnnot:
		return kind + 4 + 1
	case CopysetLookup:
		return kind + 1 + sizeAddrs(m.Addrs)
	case CopysetInfo:
		return kind + sizeAddrs(m.Addrs) + sizeSets(m.Sets)
	case CopysetNotify:
		return kind + 4 + 1
	case OwnNotify:
		return kind + 4 + 1
	case AdaptPropose:
		return kind + 4 + 1 + 4 + 1 + 4 + 1
	case AdaptCommit:
		return kind + 4 + 1 + 4
	case MPData:
		return kind + 4 + sizeBytes(m.Payload)
	case LrcLockAcq:
		return kind + 4 + 1 + sizeU32s(m.VT)
	case LrcLockSetSucc:
		return kind + 4 + 1 + sizeU32s(m.VT)
	case LrcLockGrant:
		return kind + 4 + sizeU32s(m.VT) + sizeIntervals(m.Notices) + sizeUpdates(m.Updates)
	case LrcBarrierArrive:
		return kind + 4 + 1 + sizeU32s(m.VT) + sizeU32s(m.Floors) + sizeIntervals(m.Notices)
	case LrcBarrierRelease:
		return kind + 4 + 1 + 4 + len(m.Subtree) + sizeU32s(m.VT) + sizeIntervals(m.Notices)
	case LrcDiffReq:
		return kind + 1 + 4 + sizeAddrs(m.Addrs) + sizeU32s(m.After)
	case LrcDiffResp:
		return kind + 4 + sizeDiffSets(m.Sets)
	case LrcFetchReq:
		return kind + 4 + 1 + 4
	case LrcFetchResp:
		return kind + 4 + 4 + sizeU32s(m.Applied) + sizeBytes(m.Data)
	case LrcGC:
		return kind + sizeU32s(m.Floors)
	case Batch:
		n := kind + 4
		for _, sub := range m.Msgs {
			n += 4 + Size(sub)
		}
		return n
	default:
		panic(errUnknownType)
	}
}
