package obs

// EventType identifies a traced protocol event.
type EventType uint8

const (
	// EvFault is a page fault being resolved (span: trap to resolution).
	EvFault EventType = iota
	// EvFetch is a remote data fetch — a read copy, a lazy base fetch,
	// or an object migration arriving (instant at completion).
	EvFetch
	// EvInvalidate is an invalidation applied at this node.
	EvInvalidate
	// EvOwnership is an ownership transfer granted by this node.
	EvOwnership
	// EvIntervalClose is a lazy-engine interval closing at a release.
	EvIntervalClose
	// EvNoticeApply is a batch of lazy-engine write notices absorbed.
	EvNoticeApply
	// EvBatchFlush is an outbox flushing a multi-rider envelope.
	EvBatchFlush
	// EvEngineSwitch is the adaptive engine committing an annotation
	// switch on this node.
	EvEngineSwitch

	numEventTypes
)

var eventNames = [numEventTypes]string{
	EvFault:         "fault",
	EvFetch:         "fetch",
	EvInvalidate:    "invalidate",
	EvOwnership:     "ownership",
	EvIntervalClose: "interval_close",
	EvNoticeApply:   "notice_apply",
	EvBatchFlush:    "batch_flush",
	EvEngineSwitch:  "engine_switch",
}

// String returns the event type's stable snake_case name.
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Event is one traced protocol event. IDs are unique across the run
// (a shared counter), so Cause can link an event to the one that
// triggered it — a fetch to the fault that demanded it, an invalidate
// to the fault whose flush pushed it out. Cause 0 means no link.
type Event struct {
	// ID is the run-unique event id (1-based).
	ID uint64 `json:"id"`
	// Cause is the ID of the triggering event, 0 if none.
	Cause uint64 `json:"cause,omitempty"`
	// Node is the recording node.
	Node int32 `json:"node"`
	// Type is the event type.
	Type EventType `json:"-"`
	// Time is the event start, nanoseconds since run start.
	Time int64 `json:"ts"`
	// Dur is the span duration in nanoseconds; 0 for instants.
	Dur int64 `json:"dur,omitempty"`
	// Addr is the object address involved, 0 if none.
	Addr uint64 `json:"addr,omitempty"`
	// Peer is the other node involved, -1 if none.
	Peer int32 `json:"peer"`
	// Arg is a type-specific detail: bytes fetched for EvFetch, riders
	// flushed for EvBatchFlush, notices absorbed for EvNoticeApply, the
	// new annotation for EvEngineSwitch.
	Arg int64 `json:"arg,omitempty"`
}

// Ring is a fixed-capacity per-node event buffer: appends are O(1) and
// allocation-free after construction, and once full the oldest events
// are overwritten, so tracing a long run costs bounded memory. Like the
// histograms it is unsynchronized — each node appends to its own ring
// under the node monitor.
type Ring struct {
	buf  []Event
	next uint64 // total events ever appended
}

// NewRing returns a ring holding at most capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Append records one event, overwriting the oldest when full.
func (r *Ring) Append(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next%uint64(cap(r.buf))] = e
	}
	r.next++
}

// Len returns the number of retained events.
func (r *Ring) Len() int { return len(r.buf) }

// Dropped returns how many events were overwritten.
func (r *Ring) Dropped() uint64 {
	if r.next <= uint64(len(r.buf)) {
		return 0
	}
	return r.next - uint64(len(r.buf))
}

// Events returns the retained events oldest-first (a fresh slice).
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.next > uint64(len(r.buf)) {
		start := int(r.next % uint64(cap(r.buf)))
		out = append(out, r.buf[start:]...)
		out = append(out, r.buf[:start]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}
