package munin

// Run-scoped observability: latency histograms, structured protocol
// event tracing, and hot-object profiles (internal/obs), enabled per
// run with WithMetrics and WithTracing.
//
// The disabled path is free: with neither option, core holds a nil
// recorder pointer per node and every hook is a single pointer check —
// the zero-allocation wire path and the bit-exact Table 6 numbers are
// untouched. Recording charges nothing to the cost model either, so a
// metrics-enabled simulator run reports exactly the same virtual times
// as a metrics-free one.

import (
	"io"
	"sort"

	"munin/internal/obs"
	"munin/internal/vm"
)

// LatencySummary is one operation's merged latency distribution:
// count, min/max/mean, and the p50/p99/p999 percentiles. All values
// are nanoseconds — virtual time on the simulator, wall time on the
// live transports.
type LatencySummary = obs.Summary

// TraceEvent is one structured protocol event from a traced run: a
// fault, fetch, invalidate, ownership transfer, interval close, notice
// apply, batch flush, or engine switch, with a run-unique ID and a
// Cause linking it to the event that triggered it.
type TraceEvent = obs.Event

// ObjectProfile is one shared object's merged protocol activity: miss,
// invalidation, migration and fetch counts, plus the per-node access
// row of the sharing matrix.
type ObjectProfile = obs.ObjectProfile

// TraceBuffer receives a traced run's protocol events. Declare one,
// pass it to WithTracing, and after Run it holds the merged,
// time-ordered event stream.
type TraceBuffer struct {
	// Capacity bounds each node's event ring; when a node records more,
	// the oldest events are overwritten (Dropped reports how many).
	// Zero means DefaultTraceCapacity.
	Capacity int

	events  []TraceEvent
	dropped uint64
}

// DefaultTraceCapacity is the per-node event ring size when
// TraceBuffer.Capacity is zero.
const DefaultTraceCapacity = 65536

// Events returns the run's merged protocol events, ordered by time
// (ties by event ID, which follows causality).
func (b *TraceBuffer) Events() []TraceEvent { return b.events }

// Dropped reports how many events were overwritten in the per-node
// rings before the merge; zero means Events is complete.
func (b *TraceBuffer) Dropped() uint64 { return b.dropped }

// WriteJSONL writes the events as JSON lines, one event per line.
func (b *TraceBuffer) WriteJSONL(w io.Writer) error { return obs.WriteJSONL(w, b.events) }

// WriteChrome writes the events in Chrome trace_event format; the
// output loads in chrome://tracing and in Perfetto, with one process
// track per node.
func (b *TraceBuffer) WriteChrome(w io.Writer) error { return obs.WriteChrome(w, b.events) }

// capacity resolves the ring size.
func (b *TraceBuffer) capacity() int {
	if b.Capacity > 0 {
		return b.Capacity
	}
	return DefaultTraceCapacity
}

// WithMetrics enables latency histograms and hot-object profiles for
// this run: Stats.Latencies reports per-operation percentiles and
// Result.Profile the per-object activity. Recording is histogram
// increments under the node monitor and charges no modeled time.
func WithMetrics() RunOption {
	return func(c *runConfig) { c.Metrics = true }
}

// WithTracing enables structured protocol event tracing for this run,
// delivering the merged event stream into sink after Run returns.
func WithTracing(sink *TraceBuffer) RunOption {
	return func(c *runConfig) { c.traceSink = sink }
}

// Profile returns the per-object activity profiles of a WithMetrics
// run, hottest (most accesses) first. Nil when metrics were off.
func (r *Result) Profile() []ObjectProfile {
	prof := r.sys.ObsProfile()
	sort.SliceStable(prof, func(i, j int) bool {
		return prof[i].Accesses() > prof[j].Accesses()
	})
	return prof
}

// ObjectName resolves a profile entry's address to the declared
// variable (or page-split object) name, or "" if the address does not
// start a declared object.
func (r *Result) ObjectName(addr uint64) string {
	if i, ok := r.prog.declIdx[vm.Addr(addr)]; ok {
		return r.prog.decls[i].Name
	}
	return ""
}
