// Package duq implements the delayed update queue (§3.3), the buffer of
// pending outgoing writes at the heart of Munin's software release
// consistency.
//
// A write to an object whose protocol allows delayed operations puts the
// object's directory entry on the queue (and, if multiple writers are
// allowed, makes a twin). The queue is flushed whenever a local thread
// releases a lock or arrives at a barrier; the runtime then diffs each
// enqueued object against its twin and propagates updates or
// invalidations, combining the entries bound for one node into a single
// UpdateBatch message (§3.3) — and, under Config.Batching, coalescing
// that update with the rest of the release's same-destination traffic
// (the lock grant, the barrier arrival) into one wire.Batch envelope.
// This package provides the queue structure and twin lifecycle; the
// runtime in internal/core drives propagation and charges the cost
// model.
package duq

import (
	"fmt"

	"munin/internal/directory"
	"munin/internal/vm"
)

// Queue is one node's delayed update queue. Entries appear at most once
// (the directory entry's Enqueued bit guards insertion).
type Queue struct {
	entries []*directory.Entry
}

// New returns an empty queue.
func New() *Queue { return &Queue{} }

// Enqueue puts a directory entry on the queue, setting its Enqueued bit.
// Enqueueing an entry twice is a runtime bug and panics.
func (q *Queue) Enqueue(e *directory.Entry) {
	if e.Enqueued {
		panic(fmt.Sprintf("duq: entry %v already enqueued", e))
	}
	e.Enqueued = true
	q.entries = append(q.entries, e)
}

// Remove takes a specific entry off the queue (used by the Flush and
// Invalidate library routines, which force early propagation of a single
// object). It is a no-op if the entry is not queued.
func (q *Queue) Remove(e *directory.Entry) {
	if !e.Enqueued {
		return
	}
	for i, o := range q.entries {
		if o == e {
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			break
		}
	}
	e.Enqueued = false
}

// DrainInto removes every queued entry, clearing the Enqueued bits, and
// appends them to dst in enqueue order; it returns the extended slice.
// The caller propagates the changes. The queue keeps its own array, so
// entries enqueued while the caller works on dst neither allocate in
// steady state nor land in dst.
func (q *Queue) DrainInto(dst []*directory.Entry) []*directory.Entry {
	for _, e := range q.entries {
		e.Enqueued = false
	}
	dst = append(dst, q.entries...)
	clear(q.entries)
	q.entries = q.entries[:0]
	return dst
}

// Entries returns the queued entries without removing them.
func (q *Queue) Entries() []*directory.Entry {
	return append([]*directory.Entry(nil), q.entries...)
}

// Len reports the number of queued entries.
func (q *Queue) Len() int { return len(q.entries) }

// MakeTwin installs data, a pristine copy of the object the caller hands
// over, as e's twin. The runtime makes a twin when the first delayed write
// hits an object that allows multiple writers, so a later flush can diff
// out exactly the changed words.
func MakeTwin(e *directory.Entry, data []byte) {
	if e.Twin != nil {
		panic(fmt.Sprintf("duq: entry %v already has a twin", e))
	}
	if len(data) != e.Size {
		panic(fmt.Sprintf("duq: twin of %d bytes for object of %d", len(data), e.Size))
	}
	e.Twin = data
}

// DropTwin discards e's twin (after a flush, or when the object becomes
// private and needs no further diffing).
func DropTwin(e *directory.Entry) { e.Twin = nil }

// CollectAddrs returns the start addresses of the queued entries, the form
// the copyset-determination query carries (§3.3: "a message indicating
// which objects have been modified locally is sent to all other nodes").
func (q *Queue) CollectAddrs() []vm.Addr {
	out := make([]vm.Addr, 0, len(q.entries))
	for _, e := range q.entries {
		out = append(out, e.Start)
	}
	return out
}
