package munin_test

import (
	"bytes"
	"context"
	"fmt"

	"munin"
)

// counterProgram builds the smallest interesting Munin program: a
// write-shared array of one slot per worker, a lock-protected shared
// total, and a closing barrier. Examples share it so each one shows off
// exactly one Run option.
func counterProgram(procs int) (*munin.Program, *munin.Array[int32], *munin.Var[int32], munin.Barrier) {
	p := munin.NewProgram(procs)
	slots := munin.Declare[int32](p, "slots", procs, munin.WriteShared)
	total := munin.DeclareVar[int32](p, "total", munin.WriteShared)
	done := p.CreateBarrier(procs + 1)
	return p, slots, total, done
}

// counterRoot returns the root function: every worker writes its slot
// and adds it into the lock-protected total.
func counterRoot(procs int, slots *munin.Array[int32], total *munin.Var[int32], lk munin.Lock, done munin.Barrier) func(*munin.Thread) {
	return func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("worker%d", w), func(t *munin.Thread) {
				slots.Set(t, w, int32(10*(w+1)))
				lk.Acquire(t)
				total.Set(t, total.Get(t)+int32(10*(w+1)))
				lk.Release(t)
				done.Wait(t)
			})
		}
		done.Wait(root)
	}
}

// ExampleProgram_Run builds a Program once and executes it on the
// deterministic simulator: declare typed shared variables, spawn one
// worker per node, synchronize through the runtime's lock and barrier,
// and read the results back from the run's Result.
func ExampleProgram_Run() {
	const procs = 4
	p, slots, total, done := counterProgram(procs)
	lk := p.CreateLock()

	res, err := p.Run(context.Background(), counterRoot(procs, slots, total, lk, done))
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	vals, _ := slots.Snapshot(res, 0)
	sum, _ := total.Snapshot(res, 0)
	fmt.Println("slots:", vals)
	fmt.Println("total:", sum)
	// Output:
	// slots: [10 20 30 40]
	// total: 100
}

// ExampleWithConsistency runs ONE Program under both release-consistency
// engines — the paper's eager release-time flush and the follow-up lazy
// (acquire-directed) engine — and shows they disagree about nothing but
// the traffic.
func ExampleWithConsistency() {
	const procs = 4
	p, slots, total, done := counterProgram(procs)
	lk := p.CreateLock()
	root := counterRoot(procs, slots, total, lk, done)

	eager, err := p.Run(context.Background(), root, munin.WithConsistency(munin.EagerRC))
	if err != nil {
		fmt.Println("eager run failed:", err)
		return
	}
	lazy, err := p.Run(context.Background(), root, munin.WithConsistency(munin.LazyRC))
	if err != nil {
		fmt.Println("lazy run failed:", err)
		return
	}
	fmt.Println("same final memory:", sameFinalImage(eager, lazy))
	fmt.Println("lazy sent fewer messages:", lazy.Stats().Messages < eager.Stats().Messages)
	// Output:
	// same final memory: true
	// lazy sent fewer messages: true
}

// ExampleWithTransport runs the same Program on the deterministic
// simulator and on real loopback TCP sockets: identical protocol code,
// identical results, different substrate.
func ExampleWithTransport() {
	const procs = 4
	p, slots, total, done := counterProgram(procs)
	lk := p.CreateLock()
	root := counterRoot(procs, slots, total, lk, done)

	sim, err := p.Run(context.Background(), root) // TransportSim is the default
	if err != nil {
		fmt.Println("sim run failed:", err)
		return
	}
	mux, err := p.Run(context.Background(), root, munin.WithTransport(munin.TransportMux))
	if err != nil {
		fmt.Println("mux run failed:", err)
		return
	}
	fmt.Println("same final memory:", sameFinalImage(sim, mux))
	// Output:
	// same final memory: true
}

// ExampleWithBatching compares a run with per-destination message
// batching against the default: the batched run coalesces each
// release's same-destination messages into wire.Batch envelopes —
// strictly fewer transport sends, identical memory.
func ExampleWithBatching() {
	const procs = 4
	p, slots, total, done := counterProgram(procs)
	lk := p.CreateLock()
	root := counterRoot(procs, slots, total, lk, done)

	plain, err := p.Run(context.Background(), root)
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	batched, err := p.Run(context.Background(), root, munin.WithBatching())
	if err != nil {
		fmt.Println("batched run failed:", err)
		return
	}
	fmt.Println("same final memory:", sameFinalImage(plain, batched))
	fmt.Println("fewer transport sends:", batched.Stats().Sends < plain.Stats().Sends)
	fmt.Println("envelopes used:", batched.Stats().BatchEnvelopes > 0)
	// Output:
	// same final memory: true
	// fewer transport sends: true
	// envelopes used: true
}

// sameFinalImage compares two runs' final shared memory byte for byte.
func sameFinalImage(a, b *munin.Result) bool {
	ia, ib := a.FinalImage(), b.FinalImage()
	if len(ia) != len(ib) {
		return false
	}
	for addr, want := range ia {
		if !bytes.Equal(ib[addr], want) {
			return false
		}
	}
	return true
}
