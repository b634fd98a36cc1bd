package munin

import (
	"context"
	"fmt"

	"munin/internal/core"
	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/protocol"
	xrt "munin/internal/rt"
)

// RunOption configures one execution of a Program. Options are per-run:
// the same Program can be executed under different transports, protocol
// overrides, processor counts and machine knobs without rebuilding its
// declarations.
type RunOption func(*runConfig)

// runConfig is the resolved per-run configuration: the machine knobs the
// options fill in directly, plus what only a run knows. resolve derives
// Processors, Lazy, Model and TraceEvents from the extras; Run supplies
// Transport.
type runConfig struct {
	core.Config
	procs       int
	transport   string
	consistency Consistency
	traceSink   *TraceBuffer
}

// WithTransport selects the substrate the machine runs on:
//
//	"sim" (default)  the deterministic discrete-event simulator the
//	                 paper's tables are measured on — virtual clock,
//	                 modeled 10 Mbps Ethernet, exactly reproducible
//	"chan"           a real concurrent runtime: every node is a
//	                 goroutine cluster (user threads + dispatcher)
//	                 exchanging messages over in-process queues in
//	                 real time
//	"mux"            the concurrent runtime with every node pair's
//	                 traffic multiplexed over a small fixed set of
//	                 shared loopback TCP connections (session frames
//	                 route each message; the connection count does not
//	                 grow with the node count). Sockets give only
//	                 per-pair FIFO, so update acknowledgements are
//	                 enabled automatically.
//
// The protocol code is identical on all three; on the live transports
// Stats times are wall-clock, not modeled, and a received message's
// payload bytes are decoded in place from a pooled buffer.
func WithTransport(name string) RunOption {
	return func(c *runConfig) { c.transport = name }
}

// WithHomePolicy selects how shared objects are assigned to directory
// home nodes for this run:
//
//	"root" (default)  every object's home is node 0, as the prototype's
//	                  static linker laid memory out — the configuration
//	                  the paper tables are measured on
//	"striped"         homes stripe across the machine deterministically
//	                  by page index (home = pageIndex mod processors),
//	                  spreading directory fetches, copyset lookups and
//	                  ownership anchoring that would otherwise all land
//	                  on node 0 as the machine grows
//
// The mapping is computable locally from a faulting address, so no
// node-0 relay is introduced; final memory contents are identical under
// either policy for a properly synchronized program.
func WithHomePolicy(policy string) RunOption {
	return func(c *runConfig) { c.HomePolicy = policy }
}

// WithConsistency selects the release-consistency engine for this run:
// EagerRC (the default — release-time flush to the whole copyset, as the
// paper implements) or LazyRC (interval/vector-timestamp lazy release
// consistency: propagation deferred to the acquire, diffs pulled on
// demand; see the Consistency constants). One Program can sweep both
// engines, which is how the eager-vs-lazy bench table is produced.
func WithConsistency(c Consistency) RunOption {
	return func(cfg *runConfig) { cfg.consistency = c }
}

// WithProcessors overrides the program's default node count for this run.
func WithProcessors(n int) RunOption {
	return func(c *runConfig) { c.procs = n }
}

// WithModel overrides the calibrated cost model (zero value = default).
func WithModel(m model.CostModel) RunOption {
	return func(c *runConfig) { c.Model = m }
}

// WithOverride forces every shared object to one annotation for this run
// (Table 6's single-protocol configurations).
func WithOverride(a Annotation) RunOption {
	return func(c *runConfig) { c.Override = &a }
}

// WithAdaptive enables the adaptive protocol engine (internal/adapt):
// every node profiles each shared object's access pattern (read/write
// faults, served requests, flush copyset history) and the runtime
// switches objects online to the Table 1 protocol the observed pattern
// matches — the dynamic access-pattern detection §6 of the paper leaves
// as future work. With the engine on, mis-annotated and un-annotated
// (munin.Adaptive) variables converge toward the right protocol instead
// of running slowly or aborting.
func WithAdaptive() RunOption {
	return func(c *runConfig) { c.Adaptive = true }
}

// WithExactCopyset selects the improved home-directed copyset
// determination algorithm of §3.3 instead of the prototype's broadcast: a
// writer asks each written object's home for its copyset once and keeps
// it, and the home of a write_shared or producer_consumer object serves
// all of its reads and tells each such writer about every new reader (lock
// grants do not carry such objects). On the live transports
// ("chan", "mux") it is already the default for eager runs without the
// adaptive engine; on the simulator it is the opt-in of ablation A4 in
// DESIGN.md. It cannot be combined with WithAdaptive.
func WithExactCopyset() RunOption {
	return func(c *runConfig) { c.ExactCopyset = true }
}

// WithAwaitUpdateAcks makes every release block until its updates are
// acknowledged remotely. The prototype (and the default here) relies on
// in-order delivery instead; see core.Config.AwaitUpdateAcks.
func WithAwaitUpdateAcks() RunOption {
	return func(c *runConfig) { c.AwaitUpdateAcks = true }
}

// WithBarrierTree releases barriers down a fan-out tree of the given
// arity instead of the prototype's centralized unicast — §3.4's
// envisioned scheme for larger systems. fanout 0 means the default (4);
// a fanout below 2 is a configuration error reported by Run.
func WithBarrierTree(fanout int) RunOption {
	return func(c *runConfig) { c.BarrierTree = true; c.BarrierFanout = fanout }
}

// WithPendingUpdates enables the pending update queue of §6's future
// work ("a dual to the delayed update queue"): incoming updates buffer
// at the receiver and apply at its next synchronization point,
// coalescing repeated full-object updates.
func WithPendingUpdates() RunOption {
	return func(c *runConfig) { c.PendingUpdates = true }
}

// WithBatching coalesces the messages one protocol operation sends to
// the same destination into single wire.Batch envelopes: a release
// flush's update shares a transport send with the lock grant behind it,
// a barrier master's updates with its releases, a lazy barrier release
// with the garbage-collection broadcast. Fewer transport sends, fewer
// wire headers, a cheaper per-rider send path — with byte-identical
// final memory (the riders are handled in exactly the order unbatched
// sends would have arrived in). Off by default so the reproduced paper
// tables keep the prototype's traffic shape; `munin-bench -table wire`
// measures the difference, and Stats.Sends/BatchEnvelopes report it.
func WithBatching() RunOption {
	return func(c *runConfig) { c.Batching = true }
}

// WithTrace observes every delivered protocol message. An observer that
// keeps a message past its own return must copy it first (wire.Own): on
// the live transports the message's byte payloads alias a pooled receive
// buffer, and on every transport a read reply's data becomes the
// receiver's page.
func WithTrace(fn func(network.Envelope)) RunOption {
	return func(c *runConfig) { c.Trace = fn }
}

// resolve assembles and validates the run configuration. Every
// configuration problem is an error from Run, never a panic.
func (p *Program) resolve(opts []RunOption) (runConfig, error) {
	cfg := runConfig{procs: p.procs, transport: TransportSim}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.procs <= 0 || cfg.procs > MaxProcessors {
		return cfg, fmt.Errorf("munin: %d processors outside 1–%d", cfg.procs, MaxProcessors)
	}
	switch cfg.HomePolicy {
	case "", HomeRoot, HomeStriped:
	default:
		return cfg, fmt.Errorf("munin: unknown home policy %q (want %q or %q)", cfg.HomePolicy, HomeRoot, HomeStriped)
	}
	if cfg.BarrierTree && cfg.BarrierFanout != 0 && cfg.BarrierFanout < 2 {
		return cfg, fmt.Errorf("munin: barrier tree fanout %d below 2", cfg.BarrierFanout)
	}
	switch cfg.transport {
	case "", TransportSim, TransportChan, TransportMux:
	default:
		return cfg, errUnknownTransport(cfg.transport)
	}
	if p.simOnly != "" && cfg.transport != "" && cfg.transport != TransportSim {
		return cfg, fmt.Errorf("munin: the program runs only on the simulator, not %q: %s", cfg.transport, p.simOnly)
	}
	switch cfg.consistency {
	case EagerRC, LazyRC:
	default:
		return cfg, fmt.Errorf("munin: unknown consistency %v (want EagerRC or LazyRC)", cfg.consistency)
	}
	if cfg.consistency == LazyRC && cfg.Adaptive {
		return cfg, fmt.Errorf("munin: the lazy consistency engine does not compose with the adaptive protocol engine (an online annotation switch would change an object's engine membership mid-interval)")
	}
	if cfg.ExactCopyset && cfg.Adaptive {
		return cfg, fmt.Errorf("munin: home-directed copysets (WithExactCopyset) do not compose with the adaptive protocol engine (an online annotation switch drops copies the home still counts)")
	}
	if cfg.Model == (model.CostModel{}) {
		cfg.Model = model.Default()
	}
	if err := cfg.Model.Validate(); err != nil {
		return cfg, fmt.Errorf("munin: %w", err)
	}
	if !cfg.Adaptive {
		if cfg.Override != nil {
			if *cfg.Override == protocol.Adaptive {
				return cfg, fmt.Errorf("munin: override to the adaptive (no hint) annotation needs the adaptive engine; run with WithAdaptive")
			}
		} else {
			for i := range p.decls {
				if p.decls[i].Annot == protocol.Adaptive {
					return cfg, fmt.Errorf("munin: variable %q declared adaptive (no hint) but the adaptive engine is off; run with WithAdaptive",
						p.decls[i].Name)
				}
			}
		}
	}
	cfg.Processors = cfg.procs
	cfg.Lazy = cfg.consistency == LazyRC
	if cfg.traceSink != nil {
		cfg.TraceEvents = cfg.traceSink.capacity()
	}
	return cfg, nil
}

// errUnknownTransport is the one definition of the bad-transport error:
// resolve validates with it before the program is sealed, and
// newTransport's defensive default reuses it so the two switches cannot
// drift apart in what they report.
func errUnknownTransport(name string) error {
	return fmt.Errorf("munin: unknown transport %q (want sim, chan or mux)", name)
}

// newTransport builds the transport the run configuration names (already
// validated by resolve). The cost model is already resolved, so the
// simulated transport charges identical costs to core's accounting.
func newTransport(cfg runConfig) (xrt.Transport, error) {
	switch cfg.transport {
	case "", TransportSim:
		return xrt.NewSim(cfg.Model, cfg.procs), nil
	case TransportChan:
		return xrt.NewChan(cfg.Model, cfg.procs), nil
	case TransportMux:
		return xrt.NewMux(cfg.Model, cfg.procs)
	default:
		return nil, errUnknownTransport(cfg.transport)
	}
}

// Run executes the program: dispatchers start on every node, root runs
// as the user root thread on node 0, and the machine drives to
// completion of all user threads. Each call builds a fresh machine from
// the program's declarations, so Run may be invoked repeatedly — and
// concurrently — on one Program, with per-run knobs supplied as options.
//
// The context cancels a run in flight: on the live transports ("chan",
// "mux") every node observes the cancellation and unwinds; on the
// simulator the event loop stops between events. A canceled run returns
// ctx.Err().
//
// Run returns the run's Result, or the runtime error (annotation
// misuse), deadlock, configuration error, or cancellation.
func (p *Program) Run(ctx context.Context, root func(t *Thread), opts ...RunOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := p.resolve(opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.sealed.Store(true)
	tr, err := newTransport(cfg)
	if err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		if b, ok := tr.(xrt.ContextBinder); ok {
			b.BindContext(ctx)
		}
	}
	cfg.Transport = tr
	sys := core.NewSystem(cfg.Config, p.decls, p.locks, p.barriers)
	for lock, addrs := range p.assoc {
		sys.AssociateDataAndSynch(lock, addrs...)
	}
	err = sys.Run(root)
	if cfg.traceSink != nil {
		// Filled on failure too: the protocol history that led to an
		// error is what the trace is for.
		cfg.traceSink.events, cfg.traceSink.dropped = sys.ObsEvents()
	}
	if err != nil {
		return nil, err
	}
	return newResult(p, cfg, sys), nil
}
