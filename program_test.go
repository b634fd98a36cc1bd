package munin

// Tests for the Program/Run split itself: one Program value executing
// many times under different transports and overrides, and context
// cancellation actually stopping runs in flight on every transport.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestProgramReuseAcrossTransportsAndOverrides is the redesign's
// acceptance shape: ONE Program executes six times — twice on the
// deterministic simulator, once on each live transport, and under two
// single-protocol overrides — with byte-identical sim final images and
// the same computed product everywhere.
func TestProgramReuseAcrossTransportsAndOverrides(t *testing.T) {
	const n, procs = 32, 4
	want := matmulReference(n)
	prog, root, c := buildMatmulProgram(procs, n)

	checkProduct := func(label string, res *Result) {
		t.Helper()
		got, err := c.Snapshot(res, 0)
		if err != nil {
			got, err = c.SnapshotAny(res)
		}
		if err != nil {
			t.Fatalf("%s: snapshot: %v", label, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: element %d = %d, want %d", label, i, got[i], want[i])
			}
		}
	}

	// Runs 1 and 2: the simulator, twice. Deterministic, so the final
	// shared-memory images must be byte-identical.
	sim1, err := prog.Run(context.Background(), root)
	if err != nil {
		t.Fatalf("sim run 1: %v", err)
	}
	sim2, err := prog.Run(context.Background(), root)
	if err != nil {
		t.Fatalf("sim run 2: %v", err)
	}
	img1, img2 := sim1.FinalImage(), sim2.FinalImage()
	if len(img1) == 0 || len(img1) != len(img2) {
		t.Fatalf("sim images have %d and %d objects", len(img1), len(img2))
	}
	for addr, data := range img1 {
		if !bytes.Equal(img2[addr], data) {
			t.Errorf("sim reruns differ at object %#x", addr)
		}
	}
	checkProduct("sim1", sim1)
	checkProduct("sim2", sim2)

	// Runs 3 and 4: the same Program on the live transports.
	for _, tr := range []string{TransportChan, TransportMux} {
		res, err := prog.Run(context.Background(), root, WithTransport(tr))
		if err != nil {
			t.Fatalf("%s run: %v", tr, err)
		}
		if res.Transport() != tr {
			t.Errorf("result reports transport %q, want %q", res.Transport(), tr)
		}
		checkProduct(tr, res)
	}

	// Runs 5 and 6: the same Program under Table 6 overrides on sim.
	for _, ov := range []Annotation{WriteShared, Conventional} {
		res, err := prog.Run(context.Background(), root, WithOverride(ov))
		if err != nil {
			t.Fatalf("override %v run: %v", ov, err)
		}
		checkProduct(ov.String(), res)
	}
}

// spinProgram builds a program whose threads barrier-cycle effectively
// forever: always active (so the deadlock watchdog stays quiet), never
// finishing — the shape only cancellation can stop.
func spinProgram() (*Program, func(*Thread)) {
	p := NewProgram(2)
	bar := p.CreateBarrier(2)
	root := func(root *Thread) {
		root.Spawn(1, "spinner", func(tt *Thread) {
			for i := 0; i < 1<<40; i++ {
				bar.Wait(tt)
			}
		})
		for i := 0; i < 1<<40; i++ {
			bar.Wait(root)
		}
	}
	return p, root
}

// TestContextCancellationStopsLiveTransports: cancelling the context
// makes an in-flight chan/mux run unwind and return ctx.Err().
func TestContextCancellationStopsLiveTransports(t *testing.T) {
	for _, tr := range []string{TransportChan, TransportMux} {
		t.Run(tr, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			p, root := spinProgram()
			start := time.Now()
			res, err := p.Run(ctx, root, WithTransport(tr))
			if res != nil {
				t.Error("canceled run returned a Result")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context deadline", err)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("cancellation took %v", elapsed)
			}
		})
	}
}

// TestContextCancellationStopsSimulator: the discrete-event loop also
// observes cancellation, between events.
func TestContextCancellationStopsSimulator(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	p, root := spinProgram()
	res, err := p.Run(ctx, root)
	if res != nil {
		t.Error("canceled run returned a Result")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
}

// TestCanceledSimRunsDoNotLeakGoroutines: a canceled (or stopped)
// simulator run unwinds its parked procs — dispatchers blocked in Recv,
// threads parked at barriers — instead of abandoning their goroutines.
func TestCanceledSimRunsDoNotLeakGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		p, root := spinProgram()
		if _, err := p.Run(ctx, root); !errors.Is(err, context.DeadlineExceeded) {
			cancel()
			t.Fatalf("run %d: err = %v, want deadline", i, err)
		}
		cancel()
	}
	// Unwinding is synchronous (Run drains before returning), but give
	// exited goroutines a moment to be reaped.
	time.Sleep(50 * time.Millisecond)
	after := runtime.NumGoroutine()
	// 50 canceled 2-node runs previously leaked hundreds of goroutines
	// (dispatchers + parked threads); allow a little unrelated slack.
	if after > before+20 {
		t.Errorf("goroutines grew from %d to %d across 50 canceled runs", before, after)
	}
}

// TestPreCanceledContext: a context canceled before Run starts nothing.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, root := spinProgram()
	if _, err := p.Run(ctx, root); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConcurrentRunsOfOneProgram: Run is safe to invoke concurrently on
// one Program — each invocation gets its own machine.
func TestConcurrentRunsOfOneProgram(t *testing.T) {
	const n, procs = 16, 2
	want := matmulReference(n)
	prog, root, c := buildMatmulProgram(procs, n)
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 4)
	for i := 0; i < 4; i++ {
		go func() {
			res, err := prog.Run(context.Background(), root)
			ch <- out{res, err}
		}()
	}
	for i := 0; i < 4; i++ {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		got, err := c.Snapshot(o.res, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("concurrent run %d: element %d = %d, want %d", i, k, got[k], want[k])
			}
		}
	}
}
