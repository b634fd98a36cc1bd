package network

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"munin/internal/wire"
)

// Faults injects failures into a transport for testing error paths. The
// zero value injects nothing. One Faults value may be shared by code
// running on many nodes concurrently (the live transports), so the
// counters are atomic and the reorder generator is locked.
//
// Faults operate on whole transport envelopes: under batching
// (wire.Batch) a drop loses the envelope with every rider inside it, and
// reordering moves the envelope as a unit — exactly the failure modes a
// real lost or overtaken frame would produce. A partial batch cannot be
// observed.
type Faults struct {
	// Drop, if non-nil, is consulted once per envelope with a decoded
	// copy of it; returning true silently discards it (a lost packet).
	// Under batching msg may be a wire.Batch — dropping it drops every
	// rider. The function may be
	// called concurrently from many sender goroutines on the live
	// transports.
	Drop func(src, dst int, msg wire.Message) bool

	// Partition assigns each node to a group; messages crossing groups
	// are discarded (a network partition). Nil or short slices leave
	// unlisted nodes in group 0.
	Partition []int

	// ReorderSeed, when nonzero, enables bounded delivery reordering at
	// each destination: a message may overtake earlier messages from
	// OTHER senders. Per-(src,dst) FIFO order is always preserved (the
	// guarantee TCP gives), but cross-sender CAUSAL order is not — which
	// is exactly the order release consistency relies on when update
	// acknowledgements are not awaited. This knob exists for
	// transport-level error-path tests; a full protocol run under
	// reordering needs Config.AwaitUpdateAcks to stay consistent.
	ReorderSeed int64
	// ReorderSpan bounds the simulator's delivery jitter in multiples of
	// the modeled wire latency; 0 means 8. Wider spans let a message
	// overtake whole exchanges of other senders, not just their last
	// message.
	ReorderSpan int64

	dropped   atomic.Int64
	reordered atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// Dropped returns the number of messages discarded by Drop or Partition.
func (f *Faults) Dropped() int { return int(f.dropped.Load()) }

// Reordered returns the number of deliveries perturbed by reordering.
func (f *Faults) Reordered() int { return int(f.reordered.Load()) }

// group returns the partition group of node n.
func (f *Faults) group(n int) int {
	if n < len(f.Partition) {
		return f.Partition[n]
	}
	return 0
}

// Cut reports whether the encoded message frame from src to dst must be
// discarded, and counts it. A nil receiver never cuts. The frame is
// decoded only for a Drop function to look at.
func (f *Faults) Cut(src, dst int, frame []byte) bool {
	if f == nil {
		return false
	}
	if f.Drop != nil {
		msg, err := wire.Unmarshal(frame)
		if err == nil && f.Drop(src, dst, msg) {
			f.dropped.Add(1)
			return true
		}
	}
	if len(f.Partition) > 0 && f.group(src) != f.group(dst) {
		f.dropped.Add(1)
		return true
	}
	return false
}

// Jitter returns a deterministic pseudo-random value in [0, n) for
// reordering decisions, or 0 when reordering is disabled. CountReorder
// records that a delivery was actually perturbed.
func (f *Faults) Jitter(n int64) int64 {
	if f == nil || f.ReorderSeed == 0 || n <= 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.ReorderSeed))
	}
	return f.rng.Int63n(n)
}

// span returns the jitter bound in wire latencies (ReorderSpan, default 8).
func (f *Faults) span() int64 {
	if f.ReorderSpan > 0 {
		return f.ReorderSpan
	}
	return 8
}

// CountReorder records one perturbed delivery.
func (f *Faults) CountReorder() {
	if f != nil {
		f.reordered.Add(1)
	}
}
