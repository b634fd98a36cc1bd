package main

import (
	"math"
	"sort"
)

// metricDef declares one metric: the name later issues cite, its unit,
// which direction is better, and — end-to-end only — the share of the
// parent's median by which it may worsen before -compare (and the
// driver) call it a regression. BENCHMARK.json repeats this table;
// perf_test.go fails when the two drift apart.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the system sees, the same names on
// every workload. fail_share and virtual_s are reported too (main.go)
// but are not in this table: fail_share is 0 at a healthy commit and
// virtual_s exists on one workload only, and the driver's contract wants
// metrics that are never 0 on any workload. The driver sees failures
// through the result line's attempted/failed counts instead, and
// virtual time as sim.virtual_s.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"msgs_per_op", "msg/op", "lower", 0.03},
	{"wire_bytes_per_op", "B/op", "lower", 0.03},
	{"allocs_per_op", "allocs/op", "lower", 0.05},
	{"alloc_bytes_per_op", "B/op", "lower", 0.05},
}

// bestOfWindow are the wall-clock and CPU-time metrics, reported as the
// best sample of the window rather than the median (see best).
var bestOfWindow = map[string]bool{"setup_s": true, "run_s": true, "ops_per_s": true, "cpu_s": true}

// exactOnSim are the end-to-end metrics that must repeat bit for bit on
// the simulator workload: -compare applies bound 0 to them there.
var exactOnSim = map[string]bool{"msgs_per_op": true, "wire_bytes_per_op": true, "virtual_s": true}

// liveTransports are the transports the rt layer rows cover.
var liveTransports = []string{"chan", "mux", "tcp"}

// perLayer are the single-layer metrics, all taken in the traced run
// (-trace 1), never in the timed runs. Module names are the layer names.
// A metric that does not apply to a workload (lrc.* on an eager run,
// sim.* off the simulator, a p99 with under 1000 samples) is left out of
// the report and printed as 0 on the driver's result line, which must
// carry every name.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"munin.get_ns", "ns", "lower", 0},
		{"munin.set_ns", "ns", "lower", 0},
		{"munin.readrow_ns_per_word", "ns", "lower", 0},
		{"munin.writerow_ns_per_word", "ns", "lower", 0},
		{"munin.readrow_allocs", "allocs", "lower", 0},
	}
	for _, op := range coreOps {
		defs = append(defs, metricDef{"core." + op + "_p50_us", "us", "lower", 0})
		defs = append(defs, metricDef{"core." + op + "_p99_us", "us", "lower", 0})
	}
	for _, op := range coreShareOps {
		defs = append(defs, metricDef{"core." + op + "_share", "ratio", "lower", 0})
	}
	defs = append(defs,
		metricDef{"core.app_share", "ratio", "higher", 0},
		metricDef{"core.copyset_msgs_share", "ratio", "lower", 0},
		metricDef{"core.update_msgs_share", "ratio", "higher", 0},
		metricDef{"core.lock_msgs_share", "ratio", "higher", 0},
		metricDef{"core.read_msgs_share", "ratio", "higher", 0},
		metricDef{"core.dir_msgs_share", "ratio", "lower", 0},
		metricDef{"lrc.intervals_per_op", "1/op", "lower", 0},
		metricDef{"lrc.diff_fetches_per_op", "1/op", "lower", 0},
		metricDef{"lrc.records_gced_share", "ratio", "higher", 0},
		metricDef{"wire.mean_msg_bytes", "B", "lower", 0},
		metricDef{"wire.append_ns_per_msg", "ns", "lower", 0},
		metricDef{"wire.pooled_encode_ns_per_msg", "ns", "lower", 0},
		metricDef{"wire.pooled_encode_allocs_per_msg", "allocs", "lower", 0},
		metricDef{"wire.pooled_encode_bytes_per_msg", "B", "lower", 0},
		metricDef{"wire.unmarshal_ns_per_msg", "ns", "lower", 0},
		metricDef{"wire.unmarshal_allocs_per_msg", "allocs", "lower", 0},
		metricDef{"wire.view_ns_per_msg", "ns", "lower", 0},
		metricDef{"wire.view_allocs_per_msg", "allocs", "lower", 0},
	)
	for _, t := range liveTransports {
		defs = append(defs,
			metricDef{"rt." + t + ".replay_ns_per_msg", "ns", "lower", 0},
			metricDef{"rt." + t + ".replay_cpu_ns_per_msg", "ns", "lower", 0},
			metricDef{"rt." + t + ".replay_allocs_per_msg", "allocs", "lower", 0},
			metricDef{"rt." + t + ".rtt_small_p50_us", "us", "lower", 0},
			metricDef{"rt." + t + ".rtt_small_p99_us", "us", "lower", 0},
			metricDef{"rt." + t + ".rtt_page_p50_us", "us", "lower", 0},
			metricDef{"rt." + t + ".setup_ms", "ms", "lower", 0},
		)
	}
	return append(defs,
		metricDef{"diffenc.encode_sparse_ns_per_page", "ns", "lower", 0},
		metricDef{"diffenc.encode_dense_ns_per_page", "ns", "lower", 0},
		metricDef{"diffenc.decode_sparse_ns_per_page", "ns", "lower", 0},
		metricDef{"diffenc.decode_dense_ns_per_page", "ns", "lower", 0},
		metricDef{"sim.wall_ns_per_msg", "ns", "lower", 0},
		metricDef{"sim.allocs_per_msg", "allocs", "lower", 0},
		metricDef{"sim.virtual_s", "s", "lower", 0},
		metricDef{"apps.seq_s", "s", "lower", 0},
		metricDef{"apps.overhead_x", "x", "lower", 0},
		metricDef{"wire.cpu_share_est", "ratio", "lower", 0},
		metricDef{"rt.cpu_share_est", "ratio", "lower", 0},
		metricDef{"diffenc.cpu_share_est", "ratio", "lower", 0},
		metricDef{"obs.overhead_pct", "%", "lower", 0},
		metricDef{"obs.dropped_events", "count", "lower", 0},
	)
}

// coreOps are the protocol operations internal/obs keeps a latency
// histogram for (Stats.Latencies keys); coreShareOps the ones whose time
// a worker thread spends blocked in, so their shares and the
// application's sum to one. diff_fetch happens inside acquire and fault
// and would be counted twice.
var (
	coreOps      = []string{"acquire", "release", "barrier", "fault", "diff_fetch"}
	coreShareOps = []string{"acquire", "release", "barrier", "fault"}
)

// summary is the reported shape of one metric: the value — the median
// over the samples taken, or for a time the best of them (see best) —
// with the sample count, median and spread alongside (ungated).
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// best makes a time metric's value the best sample instead of the
// median: the fastest run, the least CPU, the highest rate. On a shared
// box other tenants only ever add time, in phases of 20–40 s that are
// longer than a window, so a window's median moves with them while its
// best run stays near the floor. Measured over ten processes per
// workload, in sets an hour apart: in the quieter sets the medians
// spread by up to 20 % and once 29 % (sor.chan) where the best runs
// spread by 9 %; in the noisiest set the best runs spread by 21 %
// (matmul.chan). Hence also the widest bound the contract allows.
func best(s summary, better string) summary {
	s.Value = s.Min
	if better == "higher" {
		s.Value = s.Max
	}
	return s
}

// summarize reduces samples to their median and quartiles. Quartiles
// interpolate linearly between order statistics (numpy's default), which
// for one sample degenerate to that sample. The unit is stamped later,
// from the declaration tables.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	med := quantile(s, 0.5)
	return summary{
		Value: med, N: len(s),
		Min: s[0], Q1: quantile(s, 0.25), Median: med, Q3: quantile(s, 0.75), Max: s[len(s)-1],
	}
}

// unitOf maps every metric name to its declared unit.
var unitOf = func() map[string]string {
	m := map[string]string{"virtual_s": "s"}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range defs {
			m[def.name] = def.unit
		}
	}
	return m
}()

// stampUnits gives each measured metric its declared unit; a name that
// was never declared keeps an empty unit, which the tests reject.
func stampUnits(metrics map[string]summary) {
	for name, s := range metrics {
		s.Unit = unitOf[name]
		metrics[name] = s
	}
}

// quantile reads the q-quantile from sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median is quantile 0.5 of unsorted samples.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// point is a single-valued metric (no spread to report).
func point(v float64) summary {
	return summary{Value: v, N: 1, Min: v, Q1: v, Median: v, Q3: v, Max: v}
}
