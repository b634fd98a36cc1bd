package munin

import (
	"fmt"

	"munin/internal/core"
	"munin/internal/vm"
	"munin/internal/wire"
)

// Stats summarizes a finished run.
type Stats struct {
	// Elapsed is the total execution time: virtual on the simulator,
	// wall-clock on the live transports.
	Elapsed Time
	// RootUser and RootSystem split the root node's time into user code
	// and Munin runtime overhead (Tables 3–5's User/System columns).
	RootUser   Time
	RootSystem Time
	// Messages and Bytes count all network traffic: protocol messages
	// (batch envelope riders counted individually) and bytes including
	// framing.
	Messages int
	Bytes    int
	// Sends counts transport sends: without batching it equals Messages;
	// with WithBatching every envelope is one send however many messages
	// ride it. Delivered counts envelopes delivered into destination
	// inboxes — equal to Sends after a clean run (message conservation).
	// BatchEnvelopes counts the wire.Batch envelopes among the sends,
	// BatchedMessages the messages that rode inside them.
	Sends           int
	Delivered       int
	BatchEnvelopes  int
	BatchedMessages int
	// PerKind and PerKindBytes break the traffic down by protocol
	// message type (message counts and byte volume including framing),
	// so a table can attribute traffic to message kinds instead of
	// totals only.
	PerKind      map[wire.Kind]int
	PerKindBytes map[wire.Kind]int
	// AdaptProposals and AdaptSwitches count the adaptive engine's
	// activity (zero unless the run used WithAdaptive): proposals
	// issued, and annotation switches committed.
	AdaptProposals int
	AdaptSwitches  int
	// The Lrc* fields count the lazy consistency engine's activity
	// (zero unless the run used WithConsistency(LazyRC)): intervals
	// closed at releases, diff request/response exchanges, diff records
	// materialized, and records reclaimed by garbage collection.
	LrcIntervals   int
	LrcDiffFetches int
	LrcRecords     int
	LrcRecordsGCed int
	LrcNoticesSent int
	LrcNoticesGCed int
	// Latencies holds the per-operation latency distributions of a
	// WithMetrics run, keyed by operation name ("acquire", "release",
	// "barrier", "fault", "diff_fetch", "remote_op"); operations never
	// observed are omitted. Nil when metrics were off. Values are
	// nanoseconds — virtual on the simulator, wall on the live
	// transports.
	Latencies map[string]LatencySummary
}

// Result is everything one execution of a Program produced: statistics,
// the final shared-memory contents, the annotations the adaptive engine
// converged to, and per-variable snapshots (through the views' Snapshot
// methods). A Result exists only after its run finished, so the
// Stats-before-Run failure mode cannot be expressed.
type Result struct {
	prog  *Program
	cfg   runConfig
	sys   *core.System
	stats Stats
}

// newResult captures a finished system's observable state.
func newResult(p *Program, cfg runConfig, sys *core.System) *Result {
	st := sys.Transport().Stats()
	perKind := make(map[wire.Kind]int, len(st.Messages))
	for k, v := range st.Messages {
		perKind[k] = v
	}
	perKindBytes := make(map[wire.Kind]int, len(st.Bytes))
	for k, v := range st.Bytes {
		perKindBytes[k] = v
	}
	ast := sys.AdaptStats()
	lst := sys.LrcStats()
	return &Result{
		prog: p,
		cfg:  cfg,
		sys:  sys,
		stats: Stats{
			Elapsed:         sys.Elapsed(),
			RootUser:        sys.NodeUserTime(0),
			RootSystem:      sys.NodeSystemTime(0),
			Messages:        st.TotalMessages(),
			Bytes:           st.TotalBytes(),
			Sends:           st.Sends,
			Delivered:       st.Delivered,
			BatchEnvelopes:  st.BatchEnvelopes,
			BatchedMessages: st.BatchedMessages,
			PerKind:         perKind,
			PerKindBytes:    perKindBytes,
			AdaptProposals:  ast.Proposals,
			AdaptSwitches:   ast.Commits,
			LrcIntervals:    lst.Intervals,
			LrcDiffFetches:  lst.DiffRequests,
			LrcRecords:      lst.RecordsMaterialized,
			LrcRecordsGCed:  lst.RecordsGCed,
			LrcNoticesSent:  lst.NoticesSent,
			LrcNoticesGCed:  lst.NoticesGCed,
			Latencies:       sys.ObsLatencies(),
		},
	}
}

// Stats returns the run's statistics.
func (r *Result) Stats() Stats { return r.stats }

// Processors returns the node count the run executed on.
func (r *Result) Processors() int { return r.cfg.procs }

// Transport returns the transport name the run executed on.
func (r *Result) Transport() string { return r.cfg.transport }

// Consistency returns the release-consistency engine the run executed
// under.
func (r *Result) Consistency() Consistency { return r.cfg.consistency }

// FinalImage returns the final shared-memory contents, keyed by object
// start address (see core.System.FinalImage).
func (r *Result) FinalImage() map[vm.Addr][]byte { return r.sys.FinalImage() }

// FinalAnnotations reports, after an adaptive run, the annotation each
// declared variable converged to (keyed by the variable's base address).
func (r *Result) FinalAnnotations() map[vm.Addr]Annotation { return r.sys.FinalAnnotations() }

// System exposes the underlying core system (benchmarks and tests).
func (r *Result) System() *core.System { return r.sys }

// snapshotRange assembles the bytes at [off, off+n) of a variable whose
// objects start at the given addresses (relative to the first object).
func (r *Result) snapshotRange(node int, objects []vm.Addr, off, n int) ([]byte, error) {
	if len(objects) == 0 {
		return nil, fmt.Errorf("munin: variable has no objects")
	}
	base := objects[0]
	lo := base + vm.Addr(off)
	hi := lo + vm.Addr(n)
	out := make([]byte, n)
	for _, start := range objects {
		// Object extent from the declaration, not the data, so missing
		// objects inside the range are detected.
		objEnd := start + vm.Addr(r.prog.objectSize(start))
		if objEnd <= lo || start >= hi {
			continue
		}
		data := r.sys.ObjectData(node, start)
		if data == nil {
			return nil, fmt.Errorf("object %#x has no data at node %d", start, node)
		}
		// Overlap of [start, objEnd) with [lo, hi).
		from := lo
		if start > from {
			from = start
		}
		to := hi
		if objEnd < to {
			to = objEnd
		}
		copy(out[from-lo:to-lo], data[from-start:to-start])
	}
	return out, nil
}

// snapshotAny assembles a variable's bytes object by object from any node
// holding valid data for that object.
func (r *Result) snapshotAny(objects []vm.Addr, size int) ([]byte, error) {
	out := make([]byte, 0, size)
	for _, start := range objects {
		var data []byte
		for node := 0; node < r.cfg.procs; node++ {
			if d := r.sys.ObjectData(node, start); d != nil {
				data = d
				break
			}
		}
		if data == nil {
			return nil, fmt.Errorf("object %#x has no data at any node", start)
		}
		out = append(out, data...)
	}
	if len(out) != size {
		return nil, fmt.Errorf("assembled %d bytes, want %d", len(out), size)
	}
	return out, nil
}

// snapshot assembles a variable's bytes from a node's current object data.
func (r *Result) snapshot(node int, objects []vm.Addr, size int) ([]byte, error) {
	out := make([]byte, 0, size)
	for _, start := range objects {
		data := r.sys.ObjectData(node, start)
		if data == nil {
			return nil, fmt.Errorf("object %#x has no data at node %d", start, node)
		}
		out = append(out, data...)
	}
	if len(out) != size {
		return nil, fmt.Errorf("assembled %d bytes, want %d", len(out), size)
	}
	return out, nil
}
