package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"munin"
	"munin/internal/apps"
	"munin/internal/wire"
)

// runTimeout bounds one run. The live transports' watchdog reports a
// deadlock in tens of milliseconds; the timeout is for a run that keeps
// moving without finishing.
const runTimeout = 60 * time.Second

// instance is a workload built and ready to run: the program, the
// checksum the sequential reference computed, and the op count.
type instance struct {
	w    *workload
	app  *apps.App
	want uint32
	ops  int
	// seqS is how long the sequential reference took.
	seqS float64
}

// instantiate constructs w's program and computes the sequential
// reference.
func (w *workload) instantiate(quick bool, tr *tracer, parent *span) (*instance, error) {
	sp := tr.start(parent, "setup")
	app, reference, ops, err := w.build(quick)
	sp.end(1)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	sp = tr.start(parent, "reference")
	t0 := time.Now()
	want := reference()
	seqS := time.Since(t0).Seconds()
	sp.end(1)
	return &instance{w: w, app: app, want: want, ops: ops, seqS: seqS}, nil
}

// sample is what one run yields.
type sample struct {
	wallS, cpuS    float64
	allocs, allocB float64
	stats          munin.Stats
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// meter brackets a region with wall, CPU and allocation counters.
type meter struct {
	t0  time.Time
	cpu float64
	ms  runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuSeconds()
	m.t0 = time.Now()
	return m
}

// stop returns wall seconds, CPU seconds, heap allocations and bytes
// allocated since startMeter.
func (m *meter) stop() (wallS, cpuS, allocs, allocB float64) {
	wallS = time.Since(m.t0).Seconds()
	cpuS = cpuSeconds() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wallS, cpuS, float64(ms.Mallocs - m.ms.Mallocs), float64(ms.TotalAlloc - m.ms.TotalAlloc)
}

// run executes the program once and verifies it: a run fails when it
// errors or deadlocks, when its checksum is not the reference's, when it
// leaves pooled wire buffers borrowed, or — on the simulator — when it
// does not repeat *first, the signature of the workload's first run. What is timed is what
// apps.App.Run does — transport construction, Program.Run, teardown and
// the output check — called directly so the full Stats are at hand.
func (in *instance) run(first *simSignature, tr *tracer, parent *span, extra ...munin.RunOption) (sample, error) {
	opts := append(in.w.runOptions(), extra...)
	// The program's compute charges were priced with the app's cost
	// model; pin the machine to it last, as apps.App.Run does.
	opts = append(opts, munin.WithModel(in.app.Model))
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	if in.w.transport == munin.TransportSim {
		// The simulator runs exactly one proc at a time. With a second P
		// its goroutine hand-offs migrate between threads in phases that
		// last minutes and move run_s by a fifth from one process to the
		// next (measured: 1.11 s and 1.35 s medians in two sets of ten),
		// which would bury any change to the simulator itself.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	borrowed := wire.Outstanding()
	// Start every run from a collected heap so one run's garbage is not
	// the next run's GC work.
	runtime.GC()
	m := startMeter()
	sp := tr.start(parent, "Program.Run")
	res, err := in.app.Prog.Run(ctx, in.app.Root, opts...)
	sp.end(int64(in.ops))
	if err != nil {
		return sample{}, fmt.Errorf("run: %w", err)
	}
	sp = tr.start(parent, "Check")
	got, err := in.app.Check(res)
	sp.end(1)
	var s sample
	s.wallS, s.cpuS, s.allocs, s.allocB = m.stop()
	s.stats = res.Stats()
	if err != nil {
		return s, fmt.Errorf("check: %w", err)
	}
	if got != in.want {
		return s, fmt.Errorf("checksum %08x, sequential reference %08x", got, in.want)
	}
	if d := wire.Outstanding() - borrowed; d != 0 {
		return s, fmt.Errorf("%d pooled wire buffers still borrowed after the run", d)
	}
	return s, in.checkRepeat(first, s.stats)
}

// tally counts runs attempted and failed across warm-up, timed and
// traced runs, keeping the errors to quote. Failed runs are excluded
// from medians and never retried.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

func (t *tally) record(what string, err error) bool {
	t.Attempted++
	if err != nil {
		t.Failed++
		t.Errors = append(t.Errors, what+": "+err.Error())
		return false
	}
	return true
}

// simSignature is what must repeat bit for bit on the simulator.
type simSignature struct {
	elapsed         munin.Time
	messages, bytes int
}

func signatureOf(st munin.Stats) simSignature {
	return simSignature{st.Elapsed, st.Messages, st.Bytes}
}

// checkRepeat fails a simulator run whose virtual time, message count
// or byte count differs from the first run's.
func (in *instance) checkRepeat(first *simSignature, st munin.Stats) error {
	if in.w.transport != munin.TransportSim {
		return nil
	}
	sig := signatureOf(st)
	if *first == (simSignature{}) {
		*first = sig
		return nil
	}
	if sig != *first {
		return fmt.Errorf("simulator run not repeatable: %+v, first run %+v", sig, *first)
	}
	return nil
}

// setupReps is how many times set-up is repeated, so setup_s has a
// median and a best like the other times.
const setupReps = 3

// endToEndResult is one workload's timed measurement.
type endToEndResult struct {
	tally
	metrics map[string]summary
}

// measureEndToEnd takes the end-to-end metrics: set-up (program build,
// sequential reference, one warm-up run) repeated setupReps times, then
// timed runs back to back until `seconds` have been measured. The
// machine is a closed loop — every worker thread issues its next DSM
// operation when the previous one returns — so there is no offered
// rate, only time to solution.
func (w *workload) measureEndToEnd(quick bool, seconds float64) (*endToEndResult, error) {
	r := &endToEndResult{metrics: make(map[string]summary)}
	samples := make(map[string][]float64)
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var in *instance
	var first simSignature
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		next, err := w.instantiate(quick, nil, nil)
		if err != nil {
			return nil, err
		}
		in = next
		_, err = in.run(&first, nil, nil)
		if r.record("warm-up", err) {
			add("setup_s", time.Since(t0).Seconds())
		}
	}

	minRuns := 3
	if quick {
		minRuns = 2
	}
	ops := float64(in.ops)
	for start := time.Now(); len(samples["run_s"]) < minRuns || time.Since(start).Seconds() < seconds; {
		if r.Attempted >= setupReps+minRuns && r.Failed == r.Attempted {
			break // nothing runs; do not spin for the whole window
		}
		s, err := in.run(&first, nil, nil)
		if !r.record("timed", err) {
			continue
		}
		add("run_s", s.wallS)
		add("ops_per_s", ops/s.wallS)
		add("cpu_s", s.cpuS)
		add("msgs_per_op", float64(s.stats.Messages)/ops)
		add("wire_bytes_per_op", float64(s.stats.Bytes)/ops)
		add("allocs_per_op", s.allocs/ops)
		add("alloc_bytes_per_op", s.allocB/ops)
		if w.transport == munin.TransportSim {
			add("virtual_s", float64(s.stats.Elapsed)/1e9)
		}
	}
	if len(samples["run_s"]) == 0 || len(samples["setup_s"]) == 0 {
		return r, nil
	}
	for name, v := range samples {
		r.metrics[name] = summarize(v)
	}
	for _, def := range endToEnd {
		if bestOfWindow[def.name] {
			r.metrics[def.name] = best(r.metrics[def.name], def.better)
		}
	}
	stampUnits(r.metrics)
	return r, nil
}
