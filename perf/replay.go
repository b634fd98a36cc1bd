package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// The wire and rt layers are measured by replaying the workload's own
// message mix — captured from a real run with munin.WithTrace — through
// the layer's public functions with no protocol code around them.

// Capture limits: the first messages of the run, bounded in count and in
// bytes so a page-heavy mix (SOR moves ~37 MB a run) stays small enough
// to hold three copies of (captured, encoded, in flight).
const (
	captureMaxMsgs  = 50000
	captureMaxBytes = 24 << 20
)

// captured is one delivered protocol message and its route.
type captured struct {
	src, dst int
	msg      wire.Message
}

// capture collects delivered envelopes. The live transports call the
// observer with the destination's monitor held, concurrently for
// different destinations, and on mux the message borrows its payload
// from a pooled receive buffer — hence the mutex and wire.Own.
type capture struct {
	mu    sync.Mutex
	msgs  []captured
	bytes int
}

func (c *capture) observe(env network.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs) >= captureMaxMsgs || c.bytes >= captureMaxBytes {
		return
	}
	c.msgs = append(c.msgs, captured{env.Src, env.Dst, wire.Own(env.Msg)})
	c.bytes += env.Bytes
}

// timeLoop calls pass (one pass over the whole mix) until `slice` has
// elapsed, at least three times, and returns the median seconds per pass.
func timeLoop(slice time.Duration, pass func()) float64 {
	var secs []float64
	for start := time.Now(); len(secs) < 3 || time.Since(start) < slice; {
		t0 := time.Now()
		pass()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}

// allocsOf runs pass once and returns the heap allocations and bytes it
// made.
func allocsOf(pass func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	pass()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// sink keeps the codec loops' results alive.
var sink int

// measureWire replays the mix through the codec: the bare encoder, the
// pooled encode path the transports' Send uses today, the copying
// decoder (chan's self-check, tcp's receive) and the borrowing decoder
// (mux's receive).
func measureWire(msgs []captured, slice time.Duration, out map[string]summary) {
	n := float64(len(msgs))
	encoded := make([][]byte, len(msgs))
	total, largest := 0, 0
	for i, c := range msgs {
		encoded[i] = wire.Marshal(c.msg)
		total += len(encoded[i])
		if len(encoded[i]) > largest {
			largest = len(encoded[i])
		}
	}
	out["wire.mean_msg_bytes"] = point(float64(total) / n)

	buf := make([]byte, 0, largest)
	out["wire.append_ns_per_msg"] = point(1e9 * timeLoop(slice, func() {
		for _, c := range msgs {
			buf = wire.AppendTo(buf[:0], c.msg)
		}
		sink += len(buf)
	}) / n)

	pooled := func() {
		for _, c := range msgs {
			bp := wire.GetBuf()
			*bp = wire.AppendTo(*bp, c.msg)
			sink += len(*bp)
			wire.PutBuf(bp)
		}
	}
	out["wire.pooled_encode_ns_per_msg"] = point(1e9 * timeLoop(slice, pooled) / n)
	allocs, bytes := allocsOf(pooled)
	out["wire.pooled_encode_allocs_per_msg"] = point(allocs / n)
	out["wire.pooled_encode_bytes_per_msg"] = point(bytes / n)

	decode := func(unmarshal func([]byte) (wire.Message, error)) func() {
		return func() {
			for _, e := range encoded {
				m, err := unmarshal(e)
				if err != nil {
					panic(fmt.Sprintf("perf: captured message does not decode: %v", err))
				}
				sink += int(m.Kind())
			}
		}
	}
	copying, viewing := decode(wire.Unmarshal), decode(wire.UnmarshalView)
	out["wire.unmarshal_ns_per_msg"] = point(1e9 * timeLoop(slice, copying) / n)
	allocs, _ = allocsOf(copying)
	out["wire.unmarshal_allocs_per_msg"] = point(allocs / n)
	out["wire.view_ns_per_msg"] = point(1e9 * timeLoop(slice, viewing) / n)
	allocs, _ = allocsOf(viewing)
	out["wire.view_allocs_per_msg"] = point(allocs / n)
}

// newTransport builds a bare live transport with the public
// constructors.
func newTransport(name string, nodes int) (rt.Transport, error) {
	cost := model.Default()
	switch name {
	case "chan":
		return rt.NewChan(cost, nodes), nil
	case "mux":
		return rt.NewMux(cost, nodes)
	case "tcp":
		return rt.NewTCP(cost, nodes)
	}
	return nil, fmt.Errorf("no bare transport %q", name)
}

// replayTransport pushes the captured (src, dst, msg) sequence through a
// bare transport: one sender and one receiver proc per node, no protocol
// code — the conformance suite's pattern. Wall time runs from the first
// spawn to the last receive; CPU and allocations to Run's return.
func replayTransport(name string, nodes int, msgs []captured) (wallNS, cpuNS, allocs float64, err error) {
	tr, err := newTransport(name, nodes)
	if err != nil {
		return 0, 0, 0, err
	}
	expect := make([]int, nodes)
	for _, c := range msgs {
		expect[c.dst]++
	}
	var finished atomic.Int32
	var lastRecv atomic.Int64
	m := startMeter()
	for n := 0; n < nodes; n++ {
		n := n
		tr.Spawn(n, fmt.Sprintf("sender%d", n), func(p rt.Proc) {
			for _, c := range msgs {
				if c.src == n {
					tr.Send(p, n, c.dst, c.msg)
				}
			}
		})
		tr.Spawn(n, fmt.Sprintf("receiver%d", n), func(p rt.Proc) {
			for i := 0; i < expect[n]; i++ {
				env := tr.Recv(p, n)
				env.Release()
			}
			if int(finished.Add(1)) == nodes {
				lastRecv.Store(int64(time.Since(m.t0)))
				tr.Stop()
			}
		})
	}
	if err := tr.Run(); err != nil {
		return 0, 0, 0, fmt.Errorf("rt.%s replay: %w", name, err)
	}
	_, cpuS, allocs, _ := m.stop()
	return float64(lastRecv.Load()), cpuS * 1e9, allocs, nil
}

// measureReplay reports one transport's replay cost per message, the
// median over passes that fill `slice`.
func measureReplay(name string, nodes int, msgs []captured, slice time.Duration, out map[string]summary) error {
	n := float64(len(msgs))
	var wall, cpu, allocs []float64
	for start := time.Now(); len(wall) < 2 || time.Since(start) < slice; {
		w, c, a, err := replayTransport(name, nodes, msgs)
		if err != nil {
			return err
		}
		wall, cpu, allocs = append(wall, w/n), append(cpu, c/n), append(allocs, a/n)
	}
	out["rt."+name+".replay_ns_per_msg"] = summarize(wall)
	out["rt."+name+".replay_cpu_ns_per_msg"] = summarize(cpu)
	out["rt."+name+".replay_allocs_per_msg"] = summarize(allocs)
	return nil
}

// pingPongTrips caps a ping-pong; the time slice usually ends it first
// on the socket transports.
const pingPongTrips = 20000

// pingPong bounces msg between the two nodes of a bare transport and
// returns the sorted round-trip times in nanoseconds.
func pingPong(name string, msg wire.Message, slice time.Duration) ([]float64, error) {
	tr, err := newTransport(name, 2)
	if err != nil {
		return nil, err
	}
	var rtts []float64
	tr.Spawn(0, "ping", func(p rt.Proc) {
		start := time.Now()
		for i := 0; i < pingPongTrips && (i < 1000 || time.Since(start) < slice); i++ {
			t0 := time.Now()
			tr.Send(p, 0, 1, msg)
			env := tr.Recv(p, 0)
			env.Release()
			rtts = append(rtts, float64(time.Since(t0)))
		}
		// A message of another kind tells pong to stop the machine.
		tr.Send(p, 0, 1, wire.LockOwnNotify{})
	})
	tr.Spawn(1, "pong", func(p rt.Proc) {
		for {
			env := tr.Recv(p, 1)
			_, last := env.Msg.(wire.LockOwnNotify)
			env.Release()
			if last {
				tr.Stop()
				return
			}
			tr.Send(p, 1, 0, msg)
		}
	})
	if err := tr.Run(); err != nil {
		return nil, fmt.Errorf("rt.%s ping-pong: %w", name, err)
	}
	sort.Float64s(rtts)
	return rtts, nil
}

// measurePingPong reports round-trip latency for a lock-acquire-sized
// message and for an 8 KB page reply.
func measurePingPong(name string, rng *rand.Rand, slice time.Duration, out map[string]summary) error {
	small, err := pingPong(name, wire.LockAcq{Lock: 7, Requester: 1}, slice)
	if err != nil {
		return err
	}
	out["rt."+name+".rtt_small_p50_us"] = point(quantile(small, 0.50) / 1e3)
	out["rt."+name+".rtt_small_p99_us"] = point(quantile(small, 0.99) / 1e3)
	data := make([]byte, vm.DefaultPageSize)
	rng.Read(data)
	page, err := pingPong(name, wire.ReadReply{Addr: vm.SharedBase, Owner: 1, Data: data}, slice)
	if err != nil {
		return err
	}
	out["rt."+name+".rtt_page_p50_us"] = point(quantile(page, 0.50) / 1e3)
	return nil
}

// measureTransportSetup times constructing, starting and stopping an
// idle 8-node transport — a cost inside every run_s.
func measureTransportSetup(name string, out map[string]summary) error {
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		tr, err := newTransport(name, 8)
		if err != nil {
			return err
		}
		tr.Spawn(0, "stop", func(rt.Proc) { tr.Stop() })
		if err := tr.Run(); err != nil {
			return fmt.Errorf("rt.%s setup: %w", name, err)
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	out["rt."+name+".setup_ms"] = summarize(ms)
	return nil
}
