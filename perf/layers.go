package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"munin"
	"munin/internal/diffenc"
	"munin/internal/vm"
	"munin/internal/wire"
)

// layerResult is one workload's traced measurement.
type layerResult struct {
	tally
	metrics map[string]summary
}

// p99MinSamples is the fewest samples a p99 is reported from, so that at
// least ten lie beyond it.
const p99MinSamples = 1000

// measureLayers does the traced run: the per-layer numbers for one
// workload. It never feeds the end-to-end metrics. Plain and traced
// runs of the same program alternate so their ratio is the tracing
// overhead; the warm-up run doubles as the message capture the wire and
// rt replays use.
func (w *workload) measureLayers(quick bool, seconds float64, seed int64, tr *tracer, outDir string) (*layerResult, error) {
	r := &layerResult{metrics: make(map[string]summary)}
	out := r.metrics
	rng := rand.New(rand.NewSource(seed))
	slice := time.Duration(seconds / 40 * float64(time.Second))
	tr.workload = w.name
	root := tr.start(nil, w.name)
	defer func() { root.end(1) }()

	in, err := w.instantiate(quick, tr, root)
	if err != nil {
		return nil, err
	}
	out["apps.seq_s"] = point(in.seqS)

	var first simSignature
	run := func(what string, extra ...munin.RunOption) (sample, bool) {
		sp := tr.start(root, what)
		s, err := in.run(&first, tr, sp, extra...)
		sp.end(int64(in.ops))
		return s, r.record(what, err)
	}

	var cap capture
	if _, ok := run("capture", munin.WithTrace(cap.observe)); !ok || len(cap.msgs) == 0 {
		return r, nil
	}

	plainRuns, tracedRuns := 2, 3
	if quick {
		plainRuns, tracedRuns = 1, 1
	}
	var plain, traced []sample
	var dropped float64
	var lastTrace *munin.TraceBuffer
	for i := 0; i < tracedRuns; i++ {
		if i < plainRuns {
			if s, ok := run("run"); ok {
				plain = append(plain, s)
			}
		}
		buf := &munin.TraceBuffer{}
		if s, ok := run("run.traced", munin.WithMetrics(), munin.WithTracing(buf)); ok {
			traced = append(traced, s)
			dropped += float64(buf.Dropped())
			lastTrace = buf
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return r, nil
	}
	if err := writeChrome(lastTrace, filepath.Join(outDir, w.name+".chrome.json")); err != nil {
		return nil, err
	}

	pick := func(ss []sample, f func(sample) float64) float64 {
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = f(s)
		}
		return median(vs)
	}
	wallOf := func(s sample) float64 { return s.wallS }
	plainWall := pick(plain, wallOf)
	cpuS := pick(plain, func(s sample) float64 { return s.cpuS })
	st := plain[0].stats
	msgsPerRun := float64(st.Messages)
	ops := float64(in.ops)

	out["obs.overhead_pct"] = point(100 * (pick(traced, wallOf)/plainWall - 1))
	out["obs.dropped_events"] = point(dropped / float64(len(traced)))
	if w.kernel {
		out["apps.overhead_x"] = point(cpuS / in.seqS)
	}

	w.coreMetrics(traced, out)
	kindShares(st, out)
	if w.lazy {
		out["lrc.intervals_per_op"] = point(float64(st.LrcIntervals) / ops)
		out["lrc.diff_fetches_per_op"] = point(float64(st.LrcDiffFetches) / ops)
		if st.LrcRecords > 0 {
			out["lrc.records_gced_share"] = point(float64(st.LrcRecordsGCed) / float64(st.LrcRecords))
		}
	}
	if w.transport == munin.TransportSim {
		out["sim.wall_ns_per_msg"] = point(1e9 * plainWall / msgsPerRun)
		out["sim.allocs_per_msg"] = point(pick(plain, func(s sample) float64 { return s.allocs }) / msgsPerRun)
		out["sim.virtual_s"] = point(float64(st.Elapsed) / 1e9)
	}

	sp := tr.start(root, "munin.access")
	err = measureAccess(rng, slice, out)
	sp.end(1)
	if err != nil {
		return nil, err
	}
	sp = tr.start(root, "diffenc")
	err = measureDiffenc(rng, slice, out)
	sp.end(1)
	if err != nil {
		return nil, err
	}
	sp = tr.start(root, "wire.replay")
	measureWire(cap.msgs, slice, out)
	sp.end(int64(len(cap.msgs)))

	// The seed orders the transports so none always runs on the warmest
	// or the most fragmented heap.
	order := append([]string(nil), liveTransports...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, t := range order {
		sp = tr.start(root, "rt."+t+".replay")
		err = measureReplay(t, w.nodes, cap.msgs, slice, out)
		sp.end(int64(len(cap.msgs)))
		if err != nil {
			return nil, err
		}
		sp = tr.start(root, "rt."+t+".pingpong")
		err = measurePingPong(t, rng, slice, out)
		sp.end(1)
		if err == nil {
			err = measureTransportSetup(t, out)
		}
		if err != nil {
			return nil, err
		}
	}

	w.estimates(cap.msgs, msgsPerRun, cpuS, out)
	stampUnits(out)
	return r, nil
}

func writeChrome(buf *munin.TraceBuffer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := buf.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// coreMetrics reports the protocol operations' latency percentiles from
// the traced runs' histograms (the median over runs of each run's
// percentile) and the share of all thread time spent inside each
// operation: count × mean ÷ (user threads × elapsed). Latencies are wall
// nanoseconds on the live transports and virtual on the simulator, and
// the elapsed time they are divided by is the same clock's.
func (w *workload) coreMetrics(traced []sample, out map[string]summary) {
	// One worker thread per node plus the root thread, which spends the
	// run in a barrier wait and is in the barrier histogram too.
	threads := float64(w.nodes + 1)
	appShare := make([]float64, len(traced))
	for i := range appShare {
		appShare[i] = 1
	}
	for _, op := range coreOps {
		var p50, p99 []float64
		share := make([]float64, len(traced))
		for i, run := range traced {
			s := run.stats.Latencies[op]
			if s.Count == 0 {
				continue
			}
			p50 = append(p50, float64(s.P50)/1e3)
			if s.Count >= p99MinSamples {
				p99 = append(p99, float64(s.P99)/1e3)
			}
			elapsed := run.wallS * 1e9
			if w.transport == munin.TransportSim {
				elapsed = float64(run.stats.Elapsed)
			}
			share[i] = float64(s.Count) * float64(s.Mean) / (threads * elapsed)
		}
		if len(p50) == 0 {
			continue
		}
		out["core."+op+"_p50_us"] = summarize(p50)
		if len(p99) > 0 {
			out["core."+op+"_p99_us"] = summarize(p99)
		}
		if op == "diff_fetch" {
			continue // nested inside acquire and fault
		}
		out["core."+op+"_share"] = summarize(share)
		for i := range share {
			appShare[i] -= share[i]
		}
	}
	out["core.app_share"] = summarize(appShare)
}

// kindShares reports how the run's protocol messages divide by purpose.
func kindShares(st munin.Stats, out map[string]summary) {
	groups := map[string][]wire.Kind{
		"copyset": {wire.KindCopysetQuery, wire.KindCopysetReply, wire.KindCopysetLookup, wire.KindCopysetInfo, wire.KindCopysetNotify},
		"update":  {wire.KindUpdateBatch, wire.KindUpdateAck},
		"lock": {wire.KindLockAcq, wire.KindLockSetSucc, wire.KindLockGrant, wire.KindLockOwnNotify,
			wire.KindLrcLockAcq, wire.KindLrcLockSetSucc, wire.KindLrcLockGrant},
		"read": {wire.KindReadReq, wire.KindReadReply},
		"dir":  {wire.KindDirReq, wire.KindDirReply},
	}
	for name, kinds := range groups {
		n := 0
		for _, k := range kinds {
			n += st.PerKind[k]
		}
		out["core."+name+"_msgs_share"] = point(float64(n) / float64(st.Messages))
	}
}

// estimates computes — it does not trace — what share of the run's CPU
// each layer's measured unit cost accounts for: cost per message (or per
// diffed page) × the run's count ÷ cpu_s. What remains is protocol,
// application and scheduler.
func (w *workload) estimates(msgs []captured, msgsPerRun, cpuS float64, out map[string]summary) {
	cpuNS := cpuS * 1e9
	// Every message is encoded once through the pooled path and decoded
	// once: by the borrowing decoder on mux, by the copying one elsewhere.
	decode := out["wire.unmarshal_ns_per_msg"].Value
	if w.transport == munin.TransportMux {
		decode = out["wire.view_ns_per_msg"].Value
	}
	out["wire.cpu_share_est"] = point((out["wire.pooled_encode_ns_per_msg"].Value + decode) * msgsPerRun / cpuNS)
	if replay, ok := out["rt."+w.transport+".replay_cpu_ns_per_msg"]; ok {
		out["rt.cpu_share_est"] = point(replay.Value * msgsPerRun / cpuNS)
	}

	// Every diff in the captured mix was encoded once and decoded once.
	// A diff's cost is interpolated between the sparse and the dense
	// page by its size.
	denseBytes := float64(8 + vm.DefaultPageSize)
	cost := func(diff []byte) float64 {
		if diffenc.Empty(diff) {
			return 0
		}
		f := float64(len(diff)) / denseBytes
		lerp := func(kind string) float64 {
			lo := out["diffenc."+kind+"_sparse_ns_per_page"].Value
			hi := out["diffenc."+kind+"_dense_ns_per_page"].Value
			return lo + (hi-lo)*f
		}
		return lerp("encode") + lerp("decode")
	}
	var diffNS float64
	for _, c := range msgs {
		switch m := c.msg.(type) {
		case wire.UpdateBatch:
			for _, e := range m.Entries {
				diffNS += cost(e.Diff)
			}
		case wire.LockGrant:
			for _, e := range m.Updates {
				diffNS += cost(e.Diff)
			}
		case wire.LrcLockGrant:
			for _, e := range m.Updates {
				diffNS += cost(e.Diff)
			}
		case wire.LrcDiffResp:
			for _, set := range m.Sets {
				for _, rec := range set.Records {
					diffNS += cost(rec.Diff)
				}
			}
		}
	}
	out["diffenc.cpu_share_est"] = point(diffNS / float64(len(msgs)) * msgsPerRun / cpuNS)
}
