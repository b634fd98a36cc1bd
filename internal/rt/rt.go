// Package rt defines the pluggable Transport interface the Munin runtime
// (internal/core) is written against, and its implementations:
//
//   - Sim: the deterministic discrete-event simulator (internal/sim +
//     internal/network). Exactly one process runs at any instant against a
//     virtual clock; every run is exactly reproducible. This is the
//     transport every paper table is measured on.
//   - Chan: a real concurrent runtime. Each Munin node is a monitor — its
//     user threads and dispatcher are goroutines serialized by a per-node
//     mutex that is released at every block/yield point — and nodes
//     communicate over in-process queues in real time. Cross-node
//     parallelism is genuine, so `go test -race` exercises the protocol
//     under true concurrency.
//   - Mux: the Chan runtime with every node pair's traffic multiplexed
//     over a small fixed set of shared loopback TCP connections using
//     session frames. (NewTCP is a deprecated alias for NewMux.)
//
// Every transport moves frames: a message encoded into a pooled buffer
// where it is sent (wire.Encode), which Transport.SendFrame takes over,
// and which Transport.RecvFrame hands to the receiver inside an envelope
// that owns it. Send(msg) is Encode plus SendFrame, and Recv is RecvFrame
// plus a view decode (network.Decoded). Charging and traffic statistics
// read the frame (its kind, rider count and size), and no transport
// decodes a frame on its way: the receiver decodes what it needs, in
// place (wire.Reader), and releases the frame after handling. Only a
// trace observer, when one is installed, is shown a decoded copy. Chan
// and Mux share one send path (Live.SendFrame); every transport gives
// back the frames still in flight or queued when a run ends, and those
// a fault drops.
//
// The protocol code runs unmodified on all three: it sees only Proc,
// Future, Semaphore and Transport. The simulator's cooperative scheduler
// yields at Advance/Send/Wait points; the concurrent runtimes release the
// node monitor at exactly those points, so any interleaving the live
// transports produce is one the protocol already had to tolerate.
package rt

import (
	"context"

	"munin/internal/network"
	"munin/internal/sim"
	"munin/internal/wire"
)

// Time is a point on (or span of) the transport's clock in nanoseconds:
// virtual time on the simulator, real elapsed time on the live runtimes.
type Time = sim.Time

// TimeKind classifies how advancing time is accounted (user vs system).
type TimeKind = sim.TimeKind

// Time accounting classes, re-exported for transport-agnostic callers.
const (
	KindUser   = sim.KindUser
	KindSystem = sim.KindSystem
)

// Envelope is a delivered frame.
type Envelope = network.Envelope

// Name is what a deadlock report calls a future or a semaphore.
type Name = sim.Name

// Named returns the fixed name s.
func Named(s string) Name { return sim.Named(s) }

// NameOf returns the name fmt.Sprintf(format, node, addr), formatted only
// if a deadlock report reads it.
func NameOf(format string, node int, addr uint64) Name { return sim.NameOf(format, node, addr) }

// NameOfString returns the name fmt.Sprintf(format, node, s), formatted
// only if a deadlock report reads it. s must not be empty.
func NameOfString(format string, node int, s string) Name { return sim.NameOfString(format, node, s) }

// Stats aggregates per-kind traffic counts.
type Stats = network.Stats

// Faults injects drops, partitions and reordering (see network.Faults).
type Faults = network.Faults

// Proc is one thread of control hosted by a transport: a cooperative
// process on the simulator, a goroutine under its node's monitor on the
// live runtimes. All methods must be called from the proc's own context.
type Proc interface {
	// Name returns the name given at Spawn.
	Name() string
	// Now returns the transport's current time.
	Now() Time
	// Advance charges d to the current accounting kind. On the simulator
	// it also advances the virtual clock (other procs run in the
	// interim); on the live runtimes it is an accounting-only yield
	// point. Either way it may interleave other procs of the node.
	Advance(d Time)
	// Yield lets other runnable procs interleave.
	Yield()
	// SetKind switches the accounting class and returns the previous one.
	SetKind(k TimeKind) TimeKind
	// Kind returns the current accounting class.
	Kind() TimeKind
	// UserTime and SystemTime return the accumulated charges per class.
	UserTime() Time
	SystemTime() Time
}

// Future is a one-shot value a proc can block on (a pending RPC reply).
// Complete must be called from a proc hosted on the same node as the
// waiters. Once completed and every waiter has returned from Wait, Reset
// makes it incomplete again under a new name, for reuse.
type Future interface {
	Complete(v any)
	Done() bool
	Wait(p Proc) any
	Reset(name Name)
}

// Semaphore is a counting semaphore serializing protocol operations
// across block points. All users must be procs of the same node.
type Semaphore interface {
	Acquire(p Proc)
	TryAcquire() bool
	Busy() bool
	Release()
}

// ContextBinder is implemented by transports that can be canceled by a
// context: Run then returns ctx.Err() once the cancellation is observed
// (between events on the simulator; by every live node's next block or
// yield point on the concurrent runtimes). Bind before Run.
type ContextBinder interface {
	BindContext(ctx context.Context)
}

// Transport is a runnable Munin machine substrate: it hosts procs, keeps
// the clock, and moves encoded wire messages between nodes. Sends and
// Recv preserve per-(src,dst) FIFO order; the simulator's serialized bus and
// the Chan runtime's synchronous enqueue additionally preserve causal
// order (a message sent before a causally later one is delivered first),
// which is the guarantee release consistency leans on when update acks
// are not awaited. Mux only guarantees per-pair FIFO, so the runtime
// enables update acknowledgements on it — as it does on any live
// transport once batching reorders a sender's envelopes across
// destinations (core/outbox.go).
type Transport interface {
	// Name identifies the implementation: "sim", "chan" or "mux".
	Name() string
	// Nodes returns the node count.
	Nodes() int
	// Now returns the current time.
	Now() Time
	// Spawn starts a proc hosted on the given node.
	Spawn(node int, name string, fn func(p Proc))
	// NewFuture and NewSemaphore create blocking primitives owned by the
	// given node. name appears in deadlock reports.
	NewFuture(node int, name Name) Future
	NewSemaphore(node int, name Name, permits int) Semaphore
	// SendFrame transmits the encoded message in bp (wire.Encode, or
	// wire.JoinBatch for a batch envelope) from src to dst, charging p the
	// send path per frame and rider. It takes ownership of bp: the
	// transport returns it to the pool or hands it to the receiver, and
	// the caller must not touch it again. Sending to self is a setup bug
	// and panics.
	SendFrame(p Proc, src, dst int, bp *[]byte)
	// Send is wire.Encode plus SendFrame: the one send path, for callers
	// that hold a message rather than a frame.
	Send(p Proc, src, dst int, msg wire.Message)
	// RecvFrame blocks p until a frame arrives for node and charges the
	// receive path. The envelope carries the frame (Envelope.Frame) and
	// owns its buffer, which the caller releases (Envelope.Release) when
	// done with it; Msg is nil. When the transport is stopped, RecvFrame
	// unwinds the calling proc instead of returning.
	RecvFrame(p Proc, node int) Envelope
	// Recv is RecvFrame plus decode: Msg is a view into the frame
	// (network.Decoded), valid until the caller releases the envelope.
	// Every transport implements it as exactly that, so a decorator
	// that watches receives intercepts RecvFrame, which the dispatcher
	// calls; Recv serves callers that want the message.
	Recv(p Proc, node int) Envelope
	// Stats returns accumulated traffic statistics. Stable only while no
	// procs run (before Run, or after it returns).
	Stats() *Stats
	// SetTrace installs an observer for every delivered envelope, shown
	// with an owned decoded copy of its message (network.Traced). On the
	// live transports it is called with a transport-internal lock held
	// and must not block or call back into the transport.
	SetTrace(fn func(Envelope))
	// SetFaults installs fault injection. Call before Run.
	SetFaults(f *Faults)
	// Run drives the machine until Stop is called or a proc fails. It
	// returns the first proc failure (e.g. a *core.RuntimeError), a
	// *sim.DeadlockError when every proc is blocked with nothing in
	// flight, or nil after a clean Stop.
	Run() error
	// Stop makes Run return. Procs still blocked are unwound.
	Stop()
}
