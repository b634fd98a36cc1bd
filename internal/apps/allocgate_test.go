//go:build !race

package apps

import (
	"context"
	"runtime"
	"testing"

	"munin"
)

// The bounds on the heap allocations one critical section of the
// simulated 16-node lock ring costs, set-up and teardown included: eager
// release consistency, and the lazy engine, whose diffs, intervals and
// timestamps are kept state rather than per-message garbage.
const (
	simLockRingAllocsPerCS     = 0.40
	simLazyLockRingAllocsPerCS = 5.5
)

// TestSimLockRingAllocs is the whole-run allocation gate on the
// simulator: the 16-node lock ring at 250 rounds runs twice in one
// process, and the second run's heap allocations (runtime.MemStats
// Mallocs), divided by its critical sections, must stay within
// simLockRingAllocsPerCS. The first run warms the pools and caches a
// long-lived process keeps, as the benchmark's warm-up run does. The
// file is left out of race-detector builds, whose sync.Pool drops
// entries on purpose, so counts there are not the program's.
func TestSimLockRingAllocs(t *testing.T) {
	lockRingAllocs(t, simLockRingAllocsPerCS)
}

// TestSimLazyLockRingAllocs is TestSimLockRingAllocs under lazy release
// consistency, bound simLazyLockRingAllocsPerCS.
func TestSimLazyLockRingAllocs(t *testing.T) {
	lockRingAllocs(t, simLazyLockRingAllocsPerCS, munin.WithConsistency(munin.LazyRC))
}

// lockRingAllocs runs the 16×250 lock ring on the simulator twice with
// opts and fails when the second run allocates more than bound per
// critical section.
func lockRingAllocs(t *testing.T, bound float64, opts ...munin.RunOption) {
	t.Helper()
	cfg := LockHeavyConfig{Procs: 16, Rounds: 250}
	app, err := NewLockHeavy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := LockHeavyReference(cfg)
	run := func() {
		t.Helper()
		r, err := app.Run(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if r.Check != want {
			t.Fatalf("checksum %08x, reference %08x", r.Check, want)
		}
	}
	run()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	sections := cfg.Procs * 2 * cfg.Rounds
	perCS := float64(after.Mallocs-before.Mallocs) / float64(sections)
	t.Logf("%d allocations over %d critical sections: %.3f each", after.Mallocs-before.Mallocs, sections, perCS)
	if perCS > bound {
		t.Errorf("%.3f allocations per critical section, bound %.2f", perCS, bound)
	}
}
