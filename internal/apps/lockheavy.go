package apps

// LockHeavy is the lazy release consistency engine's motivating workload:
// fine-grained lock-protected sharing where eager release consistency
// pays for propagation nobody wants. Nodes are arranged in a ring of P
// overlapping pairs; pair g = {g, (g+1) mod P} shares one page-sized
// write-shared region and one lock. Each round, every node enters both
// of its pairs' critical sections: it reads its partner's slot and
// rewrites its own.
//
// Under the eager engine every release flushes the modified page to its
// copyset after a BROADCAST copyset determination — 2(P−1) query
// messages per release to learn what the lock transfer already implies —
// and the update itself goes to every stale holder. Under the lazy
// engine the release sends nothing; the pair's next acquirer learns of
// the writes from notices on the lock grant and pulls one diff from one
// writer. The message count per critical section drops from O(P) to
// O(1), which is what TestLazyTable holds.
//
// At the end node 0 (every region's home) reads the whole array, which
// both defines the final image at one place and advances every applied
// floor, so the closing barrier's garbage collection actually reclaims
// the round diffs (LrcRecordsGCed > 0 on a lazy run).

import (
	"fmt"

	"munin"
	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/sim"
)

// LockHeavyConfig parameterizes a lock-heavy run.
type LockHeavyConfig struct {
	// Procs is the number of processors (2–16), one ring pair per node.
	Procs int
	// Rounds is the number of critical-section rounds (default 12).
	Rounds int
	// Model is the cost model (zero = default).
	Model model.CostModel
	// Override sets the declared annotation of the shared regions, the
	// program's only data object (nil = the natural write_shared).
	Override *protocol.Annotation
}

func (c LockHeavyConfig) withDefaults() LockHeavyConfig {
	if c.Rounds == 0 {
		c.Rounds = 12
	}
	if c.Model == (model.CostModel{}) {
		c.Model = model.Default()
	}
	return c
}

// lockHeavySlotWords is each node's slot size within a pair's region.
const lockHeavySlotWords = 16

// lockHeavyValue is the value node w writes into word i of pair g's
// region in round r — a pure function of its coordinates, so the final
// image (the last round's values) is deterministic under any
// interleaving of the critical sections.
func lockHeavyValue(r, g, w, i int) uint32 {
	return uint32(r*1000000 + g*10000 + w*100 + i)
}

// LockHeavyReference computes the expected final-image checksum: every
// slot holds its writer's last-round values.
func LockHeavyReference(c LockHeavyConfig) uint32 {
	c = c.withDefaults()
	var sum uint32
	for g := 0; g < c.Procs; g++ {
		for _, w := range []int{g, (g + 1) % c.Procs} {
			for i := 0; i < lockHeavySlotWords; i++ {
				sum = sum*31 + lockHeavyValue(c.Rounds-1, g, w, i)
			}
		}
	}
	return sum
}

// NewLockHeavy builds the lock-heavy workload as a reusable App.
func NewLockHeavy(c LockHeavyConfig) (*App, error) {
	c = c.withDefaults()
	if c.Procs < 2 || c.Procs > munin.MaxProcessors {
		return nil, fmt.Errorf("apps: lock-heavy needs 2-%d processors, got %d", munin.MaxProcessors, c.Procs)
	}
	annot := protocol.WriteShared
	if c.Override != nil {
		annot = *c.Override
	}
	prog := munin.NewProgram(c.Procs)

	P, R := c.Procs, c.Rounds
	wordsPerPage := 8192 / 4
	// One page-sized region per pair, page-split out of one declaration.
	regions := munin.Declare[uint32](prog, "regions", P*wordsPerPage, annot)
	locks := make([]munin.Lock, P)
	for g := range locks {
		locks[g] = prog.CreateLock()
	}
	bar := prog.CreateBarrier(P + 1)

	word := func(g, w, i int) int {
		// w's slot within pair g's region: leaders (w == g) use slot 0,
		// partners slot 1.
		slot := 0
		if w != g {
			slot = 1
		}
		return g*wordsPerPage + slot*lockHeavySlotWords + i
	}
	touch := c.Model.MemTouchPerByte

	root := func(root *munin.Thread) {
		for w := 0; w < P; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("lh%d", w), func(t *munin.Thread) {
				pairs := []int{w, (w - 1 + P) % P}
				for r := 0; r < R; r++ {
					for _, g := range pairs {
						partner := g
						if partner == w {
							partner = (g + 1) % P
						}
						locks[g].Acquire(t)
						// Read the partner's slot (forces the diff pull
						// the lock grant's notices promised)...
						for i := 0; i < lockHeavySlotWords; i++ {
							_ = regions.Get(t, word(g, partner, i))
						}
						// ...and rewrite our own.
						for i := 0; i < lockHeavySlotWords; i++ {
							regions.Set(t, word(g, w, i), lockHeavyValue(r, g, w, i))
						}
						t.Compute(touch * sim.Time(8*lockHeavySlotWords))
						locks[g].Release(t)
					}
				}
				bar.Wait(t)
				if w == 0 {
					// The home pages everything in: the final image is
					// defined at one node and, under the lazy engine,
					// every applied floor can now advance past the
					// round diffs.
					for g := 0; g < P; g++ {
						_ = regions.Get(t, word(g, g, 0))
					}
				}
				bar.Wait(t)
			})
		}
		bar.Wait(root)
		bar.Wait(root)
	}

	check := func(res *munin.Result) (uint32, error) {
		snap, err := regions.Snapshot(res, 0)
		if err != nil {
			return 0, fmt.Errorf("apps: lock-heavy regions unavailable at the home: %w", err)
		}
		var sum uint32
		for g := 0; g < P; g++ {
			for _, w := range []int{g, (g + 1) % P} {
				for i := 0; i < lockHeavySlotWords; i++ {
					sum = sum*31 + snap[word(g, w, i)]
				}
			}
		}
		return sum, nil
	}
	return &App{Prog: prog, Root: root, Check: check, Model: c.Model}, nil
}
