// Package munin is a library reproduction of Munin, the multi-protocol
// release-consistent distributed shared memory system of Carter, Bennett
// and Zwaenepoel (SOSP '91).
//
// Munin lets shared-memory parallel programs run on a distributed-memory
// machine: shared variables are annotated with their expected access
// pattern (read-only, migratory, write-shared, producer-consumer,
// reduction, result, conventional) and the runtime keeps each object
// consistent with a protocol suited to that pattern. Release consistency —
// implemented in software with a delayed update queue of buffered,
// diff-encoded writes — masks network latency and coalesces update
// traffic.
//
// The API separates a program from its executions, which is the paper's
// whole pitch (§2, §5): one shared-memory program runs unchanged under
// many consistency protocols and machine configurations. A Program holds
// the declarations — typed shared variables, locks, barriers, initial
// data — and is built once; Run executes it, as many times as needed,
// each run configured independently by RunOptions and yielding its own
// Result:
//
//	p := munin.NewProgram(8)
//	data := munin.DeclareMatrix[int32](p, "data", n, n, munin.WriteShared)
//	done := p.CreateBarrier(8 + 1)
//	root := func(root *munin.Thread) {
//	    for w := 0; w < 8; w++ {
//	        root.Spawn(w, "worker", func(t *munin.Thread) {
//	            // ... compute via data.ReadRow / data.WriteRow ...
//	            done.Wait(t)
//	        })
//	    }
//	    done.Wait(root)
//	}
//	res, err := p.Run(ctx, root)                                  // deterministic simulator
//	res2, err := p.Run(ctx, root, munin.WithTransport("mux"))     // same program, real sockets
//	res3, err := p.Run(ctx, root, munin.WithOverride(munin.Conventional)) // Table 6 comparison
//	_ = res.Stats().Elapsed
//
// Shared variables are generic over their element type: Declare[T] makes
// a one-dimensional Array[T], DeclareMatrix[T] a row-major Matrix[T], and
// DeclareVar[T] a scalar Var[T], for T of int32, uint32, float32 or
// float64 (or any type with one of those underlying types).
//
// The distributed machine is simulated by default: a deterministic
// virtual clock, a 10 Mbps-Ethernet-style network model and software page
// tables substitute for the paper's sixteen SUN-3/60s and modified V
// kernel (see DESIGN.md). WithTransport selects the real concurrent
// runtimes instead; the context passed to Run cancels them mid-flight.
//
// All synchronization must go through the runtime's locks and barriers
// (release consistency requires it), and threads never migrate.
package munin

import (
	"fmt"

	"munin/internal/core"
	"munin/internal/protocol"
	"munin/internal/sim"
)

// Thread is a Munin user thread; see the methods of core.Thread
// (Spawn, Compute, AcquireLock/ReleaseLock/WaitAtBarrier, FetchAndOp, and
// the advanced calls of §2.5).
type Thread = core.Thread

// Time is virtual time in nanoseconds.
type Time = sim.Time

// Annotation selects a shared variable's consistency protocol.
type Annotation = protocol.Annotation

// The sharing annotations of §2.3.2 (Table 1), plus two extensions: the
// delayed-invalidation protocol the paper considered but left
// unimplemented, and Adaptive — no hint at all; the runtime profiles the
// access pattern and picks the protocol itself (requires WithAdaptive).
// The paper's "result" annotation is exported as ResultObject (its §2.3.2
// term is "result object"); Result is the value a Run returns.
const (
	Conventional     = protocol.Conventional
	ReadOnly         = protocol.ReadOnly
	Migratory        = protocol.Migratory
	WriteShared      = protocol.WriteShared
	ProducerConsumer = protocol.ProducerConsumer
	Reduction        = protocol.Reduction
	ResultObject     = protocol.Result
	InvalidateShared = protocol.InvalidateShared
	Adaptive         = protocol.Adaptive
)

// Transport names accepted by WithTransport.
const (
	TransportSim  = "sim"
	TransportChan = "chan"
	TransportMux  = "mux"
)

// Transports lists the transports a run can execute on.
func Transports() []string {
	return []string{TransportSim, TransportChan, TransportMux}
}

// MaxProcessors is the largest machine a run accepts (the wire format's
// 8-bit node ids are the hard ceiling). The paper's prototype was 16
// workstations; the scaling bench table sweeps up to this count.
const MaxProcessors = core.MaxProcessors

// Home policy names accepted by WithHomePolicy.
const (
	// HomeRoot places every shared object's directory home on node 0,
	// as the prototype's static linker did — the default.
	HomeRoot = core.HomeRoot
	// HomeStriped stripes object homes across the machine by page index
	// (home = pageIndex mod processors), spreading directory service
	// load that would otherwise concentrate on node 0 at scale.
	HomeStriped = core.HomeStriped
)

// HomePolicies lists the valid WithHomePolicy values.
func HomePolicies() []string { return []string{HomeRoot, HomeStriped} }

// Consistency selects the release-consistency engine a run executes
// under (WithConsistency).
type Consistency int

const (
	// EagerRC is the paper's engine (the default): every release
	// flushes the delayed update queue — copyset determination, diff
	// encoding, and an update push to every holder, at the release
	// itself (§3.3).
	EagerRC Consistency = iota
	// LazyRC is the second engine (internal/lrc): interval-based lazy
	// release consistency with per-node vector timestamps, in the style
	// of the follow-up work the same group published next (Keleher, Cox,
	// Zwaenepoel; TreadMarks). A release closes an interval locally and
	// sends nothing; write notices ride the next lock grant or barrier
	// release; diffs are created lazily at the first remote request and
	// fetched at acquire time by exactly the nodes the happens-before
	// order obliges. It manages the multiple-writer update protocols
	// (write_shared, producer_consumer); every other annotation keeps
	// its eager machinery.
	LazyRC
)

// String returns the engine's flag spelling: "eager" or "lazy".
func (c Consistency) String() string {
	switch c {
	case EagerRC:
		return "eager"
	case LazyRC:
		return "lazy"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// ParseConsistency maps "eager" or "lazy" to the engine constant.
func ParseConsistency(s string) (Consistency, error) {
	switch s {
	case "", "eager":
		return EagerRC, nil
	case "lazy":
		return LazyRC, nil
	default:
		return 0, fmt.Errorf("munin: unknown consistency %q (want eager or lazy)", s)
	}
}

// Consistencies lists the valid WithConsistency values.
func Consistencies() []Consistency { return []Consistency{EagerRC, LazyRC} }
