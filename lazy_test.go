package munin_test

// Public-API tests of the consistency option: validation, stats surface,
// and concurrent Runs of one Program under MIXED engines — the
// Program/Run split's promise extended to WithConsistency.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"munin"
	"munin/internal/vm"
	"munin/internal/wire"
)

// lazyTestProgram builds a small lock-paced write-shared workload whose
// final image is deterministic on the simulator.
func lazyTestProgram(procs, rounds int) (*munin.Program, func(*munin.Thread)) {
	p := munin.NewProgram(procs)
	data := munin.Declare[uint32](p, "data", 256, munin.WriteShared)
	lock := p.CreateLock()
	done := p.CreateBarrier(procs + 1)
	root := func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("w%d", w), func(t *munin.Thread) {
				for r := 0; r < rounds; r++ {
					lock.Acquire(t)
					data.Set(t, w, data.Get(t, w)+uint32(w+1))
					data.Set(t, procs, data.Get(t, procs)+1)
					lock.Release(t)
				}
				done.Wait(t)
			})
		}
		done.Wait(root)
	}
	return p, root
}

func TestConsistencyValidation(t *testing.T) {
	p, root := lazyTestProgram(2, 1)
	if _, err := p.Run(context.Background(), root,
		munin.WithConsistency(munin.LazyRC), munin.WithAdaptive()); err == nil {
		t.Fatal("LazyRC+WithAdaptive accepted")
	} else if !strings.Contains(err.Error(), "adaptive") {
		t.Fatalf("err = %v, want the adaptive explanation", err)
	}
	if _, err := p.Run(context.Background(), root, munin.WithConsistency(munin.Consistency(9))); err == nil {
		t.Fatal("unknown consistency accepted")
	}
	if _, err := munin.ParseConsistency("wild"); err == nil {
		t.Fatal("ParseConsistency accepted junk")
	}
	for _, c := range munin.Consistencies() {
		parsed, err := munin.ParseConsistency(c.String())
		if err != nil || parsed != c {
			t.Fatalf("ParseConsistency(%q) = %v, %v", c.String(), parsed, err)
		}
	}
}

func TestConsistencyResultAccessors(t *testing.T) {
	p, root := lazyTestProgram(2, 2)
	res, err := p.Run(context.Background(), root, munin.WithConsistency(munin.LazyRC))
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistency() != munin.LazyRC {
		t.Errorf("Consistency() = %v, want LazyRC", res.Consistency())
	}
	st := res.Stats()
	if st.LrcIntervals == 0 {
		t.Error("lazy run closed no intervals")
	}
	eager, err := p.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if eager.Consistency() != munin.EagerRC {
		t.Errorf("default Consistency() = %v, want EagerRC", eager.Consistency())
	}
	if est := eager.Stats(); est.LrcIntervals != 0 || est.LrcDiffFetches != 0 {
		t.Errorf("eager run reported lazy activity: %+v", est)
	}
}

// TestStatsPerKindBytes: the per-kind byte breakdown must be present,
// attribute every byte, and agree with the totals on both engines.
func TestStatsPerKindBytes(t *testing.T) {
	p, root := lazyTestProgram(3, 3)
	for _, opt := range [][]munin.RunOption{nil, {munin.WithConsistency(munin.LazyRC)}} {
		res, err := p.Run(context.Background(), root, opt...)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats()
		if len(st.PerKindBytes) == 0 {
			t.Fatal("PerKindBytes empty")
		}
		msgs, bytesTotal := 0, 0
		for k, v := range st.PerKind {
			msgs += v
			if v > 0 && st.PerKindBytes[k] == 0 {
				t.Errorf("kind %v has %d messages but no bytes", k, v)
			}
		}
		for _, v := range st.PerKindBytes {
			bytesTotal += v
		}
		if msgs != st.Messages {
			t.Errorf("per-kind messages sum %d, total %d", msgs, st.Messages)
		}
		if bytesTotal != st.Bytes {
			t.Errorf("per-kind bytes sum %d, total %d", bytesTotal, st.Bytes)
		}
	}
}

// TestProgramMixedConsistencyConcurrent runs one Program simultaneously
// under both engines and several transports; every sim run of either
// engine must produce the reference image, and the live runs the
// reference values.
func TestProgramMixedConsistencyConcurrent(t *testing.T) {
	const procs, rounds = 4, 5
	p, root := lazyTestProgram(procs, rounds)
	ref, err := p.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	refImg := ref.FinalImage()

	type job struct {
		transport string
		cons      munin.Consistency
	}
	var jobs []job
	for _, tr := range []string{"sim", "chan", "mux"} {
		jobs = append(jobs, job{tr, munin.EagerRC}, job{tr, munin.LazyRC})
	}
	jobs = append(jobs, job{"sim", munin.LazyRC}, job{"sim", munin.EagerRC})

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	imgs := make(chan map[vm.Addr][]byte, len(jobs))
	for _, j := range jobs {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(context.Background(), root,
				munin.WithTransport(j.transport), munin.WithConsistency(j.cons))
			if err != nil {
				errs <- fmt.Errorf("%s/%v: %w", j.transport, j.cons, err)
				return
			}
			if j.transport == munin.TransportSim {
				imgs <- res.FinalImage()
			} else {
				imgs <- res.FinalImage() // live: same workload is lock-paced, deterministic values
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(imgs)
	for err := range errs {
		t.Fatal(err)
	}
	for img := range imgs {
		for addr, want := range refImg {
			if !bytes.Equal(img[addr], want) {
				t.Errorf("object %#x differs from the reference image", addr)
			}
		}
	}
}

// TestLazyKindsOnlyUnderLazy: an eager run must never emit lazy-engine
// message kinds, and a lazy run must never flush update batches for the
// lazily managed data (this workload has no other delayed objects).
func TestLazyKindsOnlyUnderLazy(t *testing.T) {
	p, root := lazyTestProgram(3, 3)
	eager, err := p.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := p.Run(context.Background(), root, munin.WithConsistency(munin.LazyRC))
	if err != nil {
		t.Fatal(err)
	}
	lazyKinds := []wire.Kind{wire.KindLrcLockAcq, wire.KindLrcLockGrant, wire.KindLrcBarrierArrive,
		wire.KindLrcBarrierRelease, wire.KindLrcDiffReq, wire.KindLrcDiffResp,
		wire.KindLrcFetchReq, wire.KindLrcFetchResp, wire.KindLrcGC, wire.KindLrcLockSetSucc}
	for _, k := range lazyKinds {
		if n := eager.Stats().PerKind[k]; n != 0 {
			t.Errorf("eager run sent %d %v messages", n, k)
		}
	}
	if lazy.Stats().PerKind[wire.KindLrcLockAcq] == 0 {
		t.Error("lazy run sent no lazy lock acquires")
	}
	for _, k := range []wire.Kind{wire.KindUpdateBatch, wire.KindCopysetQuery, wire.KindCopysetReply} {
		if n := lazy.Stats().PerKind[k]; n != 0 {
			t.Errorf("lazy run sent %d %v messages (eager flush leaked)", n, k)
		}
	}
}
