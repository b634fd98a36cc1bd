package munin

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"munin/internal/core"
	"munin/internal/network"
	"munin/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// obsProgram builds a mixed workload that exercises every latency-tracked
// operation: a lock-protected migratory counter (acquire/release, write
// faults, object migration), a write-shared array (delayed-protocol
// faults and flushes), a reduction variable (remote fetch-and-Φ), and
// barriers. The counter is deliberately not lock-associated so its moves
// are ordinary faults the profiler sees, not lock-grant piggybacks.
func obsProgram(procs int) (*Program, func(*Thread)) {
	p := NewProgram(procs)
	lk := p.CreateLock()
	counter := DeclareVar[uint32](p, "counter", Migratory)
	shared := Declare[uint32](p, "shared", 256, WriteShared)
	sum := DeclareVar[uint32](p, "sum", Reduction)
	bar := p.CreateBarrier(procs + 1)
	root := func(root *Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, "worker", func(th *Thread) {
				for i := 0; i < 3; i++ {
					lk.Acquire(th)
					counter.Set(th, counter.Get(th)+1)
					lk.Release(th)
					shared.Set(th, w*8+i, uint32(w+i))
					sum.FetchAndAdd(th, uint32(w+1))
					bar.Wait(th)
				}
			})
		}
		for i := 0; i < 3; i++ {
			bar.Wait(root)
		}
	}
	return p, root
}

// obsEngines enumerates the three engines as run options.
func obsEngines() map[string][]RunOption {
	return map[string][]RunOption{
		"eager":    {WithConsistency(EagerRC)},
		"lazy":     {WithConsistency(LazyRC)},
		"adaptive": {WithConsistency(EagerRC), WithAdaptive()},
	}
}

// TestLatenciesAllTransportsAndEngines is the tentpole acceptance check:
// Stats.Latencies must report ordered percentiles for acquire, barrier
// and fault on every transport × engine combination.
func TestLatenciesAllTransportsAndEngines(t *testing.T) {
	const procs = 4
	for _, tr := range []string{TransportSim, TransportChan, TransportMux} {
		for eng, engOpts := range obsEngines() {
			t.Run(tr+"/"+eng, func(t *testing.T) {
				p, root := obsProgram(procs)
				opts := append([]RunOption{WithTransport(tr), WithMetrics()}, engOpts...)
				res, err := p.Run(context.Background(), root, opts...)
				if err != nil {
					t.Fatal(err)
				}
				lat := res.Stats().Latencies
				if lat == nil {
					t.Fatal("Latencies nil with WithMetrics")
				}
				for _, op := range []string{"acquire", "release", "barrier", "fault"} {
					s, ok := lat[op]
					if !ok || s.Count == 0 {
						t.Fatalf("no %q latencies recorded: %+v", op, lat)
					}
					if s.Min > s.P50 || s.P50 > s.P99 || s.P99 > s.P999 || s.P999 > s.Max {
						t.Errorf("%q percentiles out of order: %+v", op, s)
					}
				}
				if procs > 1 && lat["remote_op"].Count == 0 {
					t.Error("no remote fetch-and-Φ latencies recorded")
				}
				if eng == "lazy" && lat["diff_fetch"].Count == 0 {
					t.Error("lazy run recorded no diff-fetch latencies")
				}
			})
		}
	}
}

// TestCounterConservation asserts, per engine × transport, that the
// transport conserves messages (sends == deliveries), that the batching
// counters account exactly for the rider/envelope split, and that the
// latency histogram totals equal the operation counts the workload
// actually issued.
func TestCounterConservation(t *testing.T) {
	const procs = 4
	for _, tr := range []string{TransportSim, TransportChan, TransportMux} {
		for eng, engOpts := range obsEngines() {
			for _, batch := range []bool{false, true} {
				name := tr + "/" + eng
				if batch {
					name += "/batched"
				}
				t.Run(name, func(t *testing.T) {
					p, root := obsProgram(procs)
					opts := append([]RunOption{WithTransport(tr), WithMetrics()}, engOpts...)
					if batch {
						opts = append(opts, WithBatching())
					}
					res, err := p.Run(context.Background(), root, opts...)
					if err != nil {
						t.Fatal(err)
					}
					st := res.Stats()
					if st.Sends != st.Delivered {
						t.Errorf("sends %d != deliveries %d", st.Sends, st.Delivered)
					}
					// Messages counts batch riders individually; envelopes
					// are sends. The two views must reconcile exactly.
					if got := st.Sends - st.BatchEnvelopes + st.BatchedMessages; got != st.Messages {
						t.Errorf("sends %d - envelopes %d + riders %d = %d, want messages %d",
							st.Sends, st.BatchEnvelopes, st.BatchedMessages, got, st.Messages)
					}
					if !batch && (st.BatchEnvelopes != 0 || st.BatchedMessages != 0) {
						t.Errorf("unbatched run counted envelopes %d riders %d",
							st.BatchEnvelopes, st.BatchedMessages)
					}
					// Histogram totals equal the operation counts the
					// workload issued: 3 acquire/release pairs per worker,
					// 3 barrier waits per thread including the root.
					lat := st.Latencies
					if want := int64(3 * procs); lat["acquire"].Count != want || lat["release"].Count != want {
						t.Errorf("acquire/release counts %d/%d, want %d",
							lat["acquire"].Count, lat["release"].Count, want)
					}
					if want := int64(3 * (procs + 1)); lat["barrier"].Count != want {
						t.Errorf("barrier count %d, want %d", lat["barrier"].Count, want)
					}
				})
			}
		}
	}
}

// TestPerKindBytesConservation is the Stats.PerKindBytes accounting
// check: on every transport, batched or not, the per-kind byte
// attribution (riders under their own kinds, envelope framing under
// KindBatch) must sum to the total bytes put on the wire, and the wire
// total must equal the sum of delivered envelope sizes.
func TestPerKindBytesConservation(t *testing.T) {
	const procs = 4
	for _, tr := range []string{TransportSim, TransportChan, TransportMux} {
		for _, batch := range []bool{false, true} {
			name := tr
			if batch {
				name += "/batched"
			}
			t.Run(name, func(t *testing.T) {
				p, root := obsProgram(procs)
				var mu sync.Mutex
				wireBytes, envCount := 0, 0
				opts := []RunOption{
					WithTransport(tr),
					WithTrace(func(env network.Envelope) {
						mu.Lock()
						wireBytes += env.Bytes
						envCount++
						mu.Unlock()
					}),
				}
				if batch {
					opts = append(opts, WithBatching())
				}
				res, err := p.Run(context.Background(), root, opts...)
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats()
				perKindMsgs, perKindBytes := 0, 0
				for _, v := range st.PerKind {
					perKindMsgs += v
				}
				for _, v := range st.PerKindBytes {
					perKindBytes += v
				}
				if perKindMsgs != st.Messages {
					t.Errorf("per-kind message sum %d != total %d", perKindMsgs, st.Messages)
				}
				if perKindBytes != st.Bytes {
					t.Errorf("per-kind byte sum %d != total %d", perKindBytes, st.Bytes)
				}
				if wireBytes != st.Bytes {
					t.Errorf("delivered envelope bytes %d != counted bytes %d", wireBytes, st.Bytes)
				}
				if envCount != st.Sends || envCount != st.Delivered {
					t.Errorf("traced envelopes %d, sends %d, delivered %d", envCount, st.Sends, st.Delivered)
				}
				if st.PerKind[wire.KindBatch] != 0 {
					// Envelopes are framing, not protocol messages: only
					// their overhead bytes may appear under KindBatch.
					t.Errorf("batch envelopes counted as messages: %d", st.PerKind[wire.KindBatch])
				}
				if batch && st.BatchEnvelopes > 0 && st.PerKindBytes[wire.KindBatch] == 0 {
					t.Error("batched run attributed no framing bytes to KindBatch")
				}
			})
		}
	}
}

// TestMetricsZeroDrift: recording charges nothing to the cost model, so
// a metrics-and-tracing-enabled simulator run must report exactly the
// virtual times and message counts of a bare one — 0% drift, well
// inside the CI job's 5% budget.
func TestMetricsZeroDrift(t *testing.T) {
	for eng, engOpts := range obsEngines() {
		t.Run(eng, func(t *testing.T) {
			run := func(opts ...RunOption) Stats {
				p, root := obsProgram(4)
				res, err := p.Run(context.Background(), root, append(opts, engOpts...)...)
				if err != nil {
					t.Fatal(err)
				}
				return res.Stats()
			}
			bare := run()
			observed := run(WithMetrics(), WithTracing(&TraceBuffer{}))
			if bare.Elapsed != observed.Elapsed {
				t.Errorf("metrics moved virtual time: %v -> %v", bare.Elapsed, observed.Elapsed)
			}
			if bare.Messages != observed.Messages || bare.Bytes != observed.Bytes {
				t.Errorf("metrics moved traffic: %d/%d -> %d/%d msgs/bytes",
					bare.Messages, bare.Bytes, observed.Messages, observed.Bytes)
			}
			if bare.RootUser != observed.RootUser || bare.RootSystem != observed.RootSystem {
				t.Errorf("metrics moved root times: %v/%v -> %v/%v",
					bare.RootUser, bare.RootSystem, observed.RootUser, observed.RootSystem)
			}
		})
	}
}

// TestTraceEvents checks the structured event stream: time-ordered,
// cause links resolve to earlier-issued event ids, and both exporters
// produce valid output.
func TestTraceEvents(t *testing.T) {
	p, root := obsProgram(4)
	sink := &TraceBuffer{}
	_, err := p.Run(context.Background(), root, WithTracing(sink))
	if err != nil {
		t.Fatal(err)
	}
	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("traced run produced no events")
	}
	if sink.Dropped() != 0 {
		t.Fatalf("default-capacity ring dropped %d events", sink.Dropped())
	}
	ids := make(map[uint64]bool, len(events))
	types := make(map[string]bool)
	causeLinked := false
	for i, e := range events {
		if e.ID == 0 || ids[e.ID] {
			t.Fatalf("event %d has invalid or duplicate id %d", i, e.ID)
		}
		ids[e.ID] = true
		types[e.Type.String()] = true
		if i > 0 && events[i-1].Time > e.Time {
			t.Fatalf("events out of time order at %d", i)
		}
		if e.Cause != 0 {
			causeLinked = true
			if !ids[e.Cause] && e.Cause >= e.ID {
				t.Fatalf("event %d cause %d is not an earlier-issued id", e.ID, e.Cause)
			}
		}
	}
	for _, want := range []string{"fault", "fetch"} {
		if !types[want] {
			t.Errorf("no %q events in trace (have %v)", want, types)
		}
	}
	if !causeLinked {
		t.Error("no event carries a cause link")
	}

	var jsonl bytes.Buffer
	if err := sink.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != len(events) {
		t.Fatalf("JSONL has %d lines for %d events", len(lines), len(events))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("bad JSONL line: %v", err)
	}

	var chrome bytes.Buffer
	if err := sink.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) < len(events) {
		t.Fatalf("chrome trace has %d entries for %d events", len(out.TraceEvents), len(events))
	}
}

// TestTraceSurvivesFailedRun: the event stream matters most when the run
// fails, so a run that ends in a runtime error still fills its sink.
func TestTraceSurvivesFailedRun(t *testing.T) {
	p := NewProgram(2)
	shared := Declare[uint32](p, "shared", 16, WriteShared)
	ro := Declare[uint32](p, "ro", 4, ReadOnly)
	bar := p.CreateBarrier(2)
	sink := &TraceBuffer{}
	_, err := p.Run(context.Background(), func(root *Thread) {
		root.Spawn(1, "reader", func(th *Thread) {
			_ = shared.Get(th, 0)
			bar.Wait(th)
		})
		bar.Wait(root)
		ro.Set(root, 0, 1) // annotation misuse with the adaptive engine off
	}, WithTracing(sink))
	var rerr *core.RuntimeError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v, want a *core.RuntimeError", err)
	}
	if len(sink.Events()) == 0 {
		t.Fatal("failed run left an empty TraceBuffer")
	}
}

// TestTraceRingCapacity: a tiny per-node ring must overwrite oldest and
// report the overflow, not grow.
func TestTraceRingCapacity(t *testing.T) {
	p, root := obsProgram(4)
	sink := &TraceBuffer{Capacity: 4}
	_, err := p.Run(context.Background(), root, WithTracing(sink))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sink.Events()); n > 4*4 {
		t.Fatalf("%d events retained with capacity 4 on 4 nodes", n)
	}
	if sink.Dropped() == 0 {
		t.Error("tiny ring reported no drops")
	}
}

// TestProfileHotObjects checks the hot-object profile: ordered hottest
// first, counts consistent, names resolvable.
func TestProfileHotObjects(t *testing.T) {
	p, root := obsProgram(4)
	res, err := p.Run(context.Background(), root, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Profile()
	if len(prof) == 0 {
		t.Fatal("metrics run produced no object profiles")
	}
	named := false
	for i, o := range prof {
		if i > 0 && prof[i-1].Accesses() < o.Accesses() {
			t.Fatal("profile not sorted hottest first")
		}
		var perNode int64
		for _, c := range o.PerNode {
			perNode += c
		}
		if perNode != o.Accesses() {
			t.Errorf("object %#x sharing row sums %d, accesses %d", o.Addr, perNode, o.Accesses())
		}
		if o.Sharers() < 1 {
			t.Errorf("object %#x has no sharers despite being profiled", o.Addr)
		}
		if res.ObjectName(o.Addr) != "" {
			named = true
		}
	}
	if !named {
		t.Error("no profiled object resolves to a declared name")
	}
	// The migratory counter bounces among all four nodes: it must show
	// up with multiple sharers (names carry page-split suffixes, so
	// match by prefix).
	found := false
	for _, o := range prof {
		if strings.HasPrefix(res.ObjectName(o.Addr), "counter") && o.Sharers() >= 2 {
			found = true
		}
	}
	if !found {
		t.Error("counter object missing from profile or single-sharer")
	}
}

// TestLatencyGolden pins the deterministic simulator's latency summary
// bit for bit. Regenerate with: go test -run TestLatencyGolden -update
func TestLatencyGolden(t *testing.T) {
	p, root := obsProgram(4)
	res, err := p.Run(context.Background(), root, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res.Stats().Latencies, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "latencies_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("latency summary drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
