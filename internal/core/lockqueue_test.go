package core

import (
	"errors"
	"fmt"
	"testing"

	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// lockQueueRounds is how often each node enters each lock's critical
// section in a lockQueueRun.
const lockQueueRounds = 6

// lockQueueRun has every node take two locks in turn for lockQueueRounds
// rounds; lock l guards a write_shared counter on page l (or, samePage,
// word l of page 0), which each holder increments. The test keeps its
// own count of the threads inside each lock and reports any moment it
// exceeds one, then reads both counters under their locks and reports
// any that is not procs × lockQueueRounds, and last checks the hint tree
// (lockTreeErr). On the
// simulator with wide delivery reordering this drives requests, enqueues
// and grants past each other; seed 0 delivers in order.
func lockQueueRun(t *testing.T, procs int, seed, span int64, cfg Config, samePage bool) (*System, error) {
	t.Helper()
	decls := []Decl{
		{Name: "c1", Start: page(0), Size: vm.DefaultPageSize, Annot: protocol.WriteShared, Synchq: -1},
		{Name: "c2", Start: page(1), Size: vm.DefaultPageSize, Annot: protocol.WriteShared, Synchq: -1},
	}
	counter := func(l int) vm.Addr { return page(l) }
	if samePage {
		decls = decls[:1]
		counter = func(l int) vm.Addr { return page(0) + vm.Addr(4*l) }
	}
	tr := transportFor(t, "sim", procs)
	tr.SetFaults(&rt.Faults{ReorderSeed: seed, ReorderSpan: span})
	cfg.Processors, cfg.Transport = procs, tr
	sys := NewSystem(cfg, decls, []LockDecl{{ID: 1, Home: 0}, {ID: 2, Home: 0}},
		[]BarrierDecl{{ID: 9, Home: 0, Expected: procs + 1}})
	var inside [2]int
	var bad error
	err := sys.Run(func(root *Thread) {
		for w := 0; w < procs; w++ {
			root.Spawn(w, "worker", func(th *Thread) {
				for r := 0; r < lockQueueRounds; r++ {
					for l := 0; l < 2; l++ {
						th.AcquireLock(l + 1)
						if inside[l]++; inside[l] > 1 && bad == nil {
							bad = fmt.Errorf("%d threads inside lock %d", inside[l], l+1)
						}
						th.WriteWord(counter(l), th.ReadWord(counter(l))+1)
						inside[l]--
						th.ReleaseLock(l + 1)
					}
				}
				th.WaitAtBarrier(9)
			})
		}
		root.WaitAtBarrier(9)
		for l := 0; l < 2; l++ {
			root.AcquireLock(l + 1)
			if got, want := root.ReadWord(counter(l)), uint32(procs*lockQueueRounds); got != want && bad == nil {
				bad = fmt.Errorf("counter %d = %d, want %d", l+1, got, want)
			}
			root.ReleaseLock(l + 1)
		}
	})
	if err != nil {
		return sys, err
	}
	if bad != nil {
		return sys, bad
	}
	return sys, lockTreeErr(sys, 1, 2)
}

// lockTreeErr checks path reversal's invariant on a machine at rest: per
// lock, exactly one node's hint names itself, that node is the queue's
// tail and the lock's one owner, and following the hints from any node
// reaches it within N−1 hops, so they hold no cycle.
func lockTreeErr(sys *System, locks ...int) error {
	nodes := sys.Nodes()
	for _, id := range locks {
		hint := make([]int, nodes)
		tail, owners := -1, 0
		for i := range hint {
			se, _ := sys.Node(i).synch.Lookup(id)
			hint[i] = se.ProbOwner
			if se.Owned {
				owners++
			}
			if se.ProbOwner != i {
				continue
			}
			if tail >= 0 {
				return fmt.Errorf("lock %d: nodes %d and %d are both the tail", id, tail, i)
			}
			if tail = i; !se.Owned {
				return fmt.Errorf("lock %d: the tail, node %d, does not own it", id, i)
			}
		}
		if tail < 0 || owners != 1 {
			return fmt.Errorf("lock %d: tail %d, %d owners", id, tail, owners)
		}
		for i := range hint {
			at := i
			for hops := 0; at != tail; hops++ {
				if hops == nodes-1 {
					return fmt.Errorf("lock %d: hints from node %d do not reach the tail, node %d, in %d hops", id, i, tail, hops)
				}
				at = hint[at]
			}
		}
	}
	return nil
}

// TestLockQueueUnderReordering runs the two-lock counter on the simulator
// under both engines with cross-sender delivery reordering up to 3000×
// the wire latency: the distributed lock queue must keep mutual
// exclusion, lose no increment, never deadlock, and leave its hints a
// tree rooted at the tail. The eager engine awaits update
// acknowledgements, which is what release consistency needs under
// reordering.
func TestLockQueueUnderReordering(t *testing.T) {
	engines := []struct {
		name string
		cfg  Config
	}{
		{"eager", Config{AwaitUpdateAcks: true}},
		{"lazy", Config{Lazy: true}},
	}
	for _, eng := range engines {
		for _, procs := range []int{4, 8, 16} {
			for _, span := range []int64{8, 500, 3000} {
				for seed := int64(1); seed <= 4; seed++ {
					if _, err := lockQueueRun(t, procs, seed, span, eng.cfg, false); err != nil {
						t.Errorf("%s procs=%d span x%d seed %d: %v", eng.name, procs, span, seed, err)
					}
				}
			}
		}
	}
}

// TestLockQueueSamePageEager puts both counters on one write_shared page,
// so every holder's update carries a diff of the page the other lock's
// holders are writing too. A write fault's twin must match the page the
// diff is later taken against even when an update lands while the fault
// charges its copy cost: otherwise the next diff carries the other
// counter's stale value and overwrites a newer one. Eager with acks, in
// order (seed 0) and under reordering up to 3000x the wire latency.
func TestLockQueueSamePageEager(t *testing.T) {
	for _, procs := range []int{2, 3, 4, 8} {
		for _, span := range []int64{500, 3000} {
			for seed := int64(0); seed <= 4; seed++ {
				if seed == 0 && span != 500 {
					continue // in order: the span does not matter
				}
				if _, err := lockQueueRun(t, procs, seed, span, Config{AwaitUpdateAcks: true}, true); err != nil {
					t.Errorf("procs=%d span x%d seed %d: %v", procs, span, seed, err)
				}
			}
		}
	}
}

// TestOwnLockRequestFails: a node that receives its own lock request
// fails with ErrOwnLockRequest, and does not queue itself as its own
// successor. Node 1 is the tail with its request in flight, the state in
// which a returning request would otherwise be recorded.
func TestOwnLockRequestFails(t *testing.T) {
	sys := NewSystem(Config{Processors: 2}, nil, []LockDecl{{ID: 1, Home: 0}}, nil)
	n := sys.Node(1)
	se, _ := n.synch.Lookup(1)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "requester", func(th *Thread) {
			n.lockPend[1], se.ProbOwner = true, 1
			n.serveLockRequest(th.proc, wire.Marshal(wire.LockAcq{Lock: 1, Requester: 1}), 1, 1, nil)
		})
	})
	if !errors.Is(err, ErrOwnLockRequest) {
		t.Fatalf("Run = %v, want %v", err, ErrOwnLockRequest)
	}
	if se.Succ != -1 {
		t.Errorf("node 1 queued node %d as its successor", se.Succ)
	}
}

// BenchmarkSimLockPingPong: two nodes on the simulator take one lock in
// turn, each b.N times, so every acquire is a remote request and a grant
// — the lock transfer every critical section of the lock ring pays. Only
// the steady state is timed: set-up, a warm-up that fills the node's
// reusable futures, replies and pools, and teardown are not. It must
// report 0 allocs/op; the CI zero-copy receive gate fails otherwise.
func BenchmarkSimLockPingPong(b *testing.B) {
	const warm = 64
	sys := NewSystem(Config{Processors: 2, Transport: rt.NewSim(model.Default(), 2)}, nil,
		[]LockDecl{{ID: 1, Home: 0}}, []BarrierDecl{{ID: 9, Home: 0, Expected: 2}})
	turns := func(th *Thread, n int) {
		for range n {
			th.AcquireLock(1)
			th.Compute(1000) // 1 µs inside
			th.ReleaseLock(1)
		}
	}
	b.ReportAllocs()
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "pong", func(th *Thread) {
			turns(th, warm)
			th.WaitAtBarrier(9)
			turns(th, b.N)
			th.WaitAtBarrier(9)
		})
		turns(root, warm)
		root.WaitAtBarrier(9)
		b.ResetTimer()
		turns(root, b.N)
		root.WaitAtBarrier(9)
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	if got := sys.Transport().Stats().Messages[wire.KindLockGrant]; got < b.N {
		b.Fatalf("%d lock grants over %d turns each: the lock did not move", got, b.N)
	}
}
