package core

import (
	"fmt"

	"munin/internal/obs"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/vm"
	"munin/internal/wire"
)

// Thread is a Munin user thread. It runs on a fixed node (the prototype
// performs no thread migration, §2.1) and accesses shared memory through
// that node's address space; protection faults invoke the runtime.
type Thread struct {
	sys  *System
	node *Node
	proc rt.Proc
	id   int
	name string
	// viewing is set while a View callback runs: every runtime entry
	// point checks it (guard), since the callback holds a page in place.
	viewing bool
	// lrcFetch is the thread's lazy diff-pull working set.
	lrcFetch lrcFetch
}

// ID returns the thread's unique identifier.
func (t *Thread) ID() int { return t.id }

// NodeID returns the node the thread runs on.
func (t *Thread) NodeID() int { return t.node.id }

// Now returns the current virtual time.
func (t *Thread) Now() rt.Time { return t.proc.Now() }

// Spawn creates a user thread running fn on the given node, as
// CreateThread does in a Munin program. It returns immediately; the new
// thread runs concurrently.
func (t *Thread) Spawn(node int, name string, fn func(*Thread)) {
	if node < 0 || node >= t.sys.Nodes() {
		panic(fmt.Sprintf("core: spawn on invalid node %d", node))
	}
	nt := t.sys.newThread(t.sys.nodes[node], name)
	t.sys.liveUser.Add(1)
	t.sys.tr.Spawn(node, nt.name, func(p rt.Proc) {
		nt.proc = p
		nt.node.procs = append(nt.node.procs, p)
		defer func() {
			if t.sys.liveUser.Add(-1) == 0 {
				t.sys.tr.Stop()
			}
		}()
		fn(nt)
		// No message dies with the proc.
		nt.node.flush(p)
	})
}

// Compute charges d of application compute time (the kernels' arithmetic
// runs natively; its cost is modeled explicitly so Munin and
// message-passing versions are charged identically).
func (t *Thread) Compute(d rt.Time) {
	t.guard("Compute")
	t.proc.Advance(d)
}

// Read copies shared memory at addr into buf, faulting as needed: one copy
// per page, the bulk path kernels' row accesses take.
func (t *Thread) Read(addr vm.Addr, buf []byte) {
	t.guard("Read")
	t.node.space.Read(t, addr, buf)
}

// View calls fn on the n bytes of shared memory at addr where they lie,
// one segment per page, faulting each page for read exactly as Read does
// (see vm.Space.View) but copying nothing. seg is read-only and valid
// only during fn, and fn must not call into the runtime: an access,
// Compute or a synchronization operation inside it panics, because any of
// them can yield, and a yield can revoke or rewrite the page fn holds.
func (t *Thread) View(addr vm.Addr, n int, fn func(seg []byte)) {
	t.guard("View")
	t.node.space.View(t, addr, n, func(seg []byte) {
		t.viewing = true
		fn(seg)
		t.viewing = false
	})
}

// Write stores buf to shared memory at addr, faulting as needed.
func (t *Thread) Write(addr vm.Addr, buf []byte) {
	t.guard("Write")
	t.node.space.Write(t, addr, buf)
}

// ReadWord loads one 32-bit shared word.
func (t *Thread) ReadWord(addr vm.Addr) uint32 {
	t.guard("ReadWord")
	return t.node.space.ReadWord(t, addr)
}

// WriteWord stores one 32-bit shared word.
func (t *Thread) WriteWord(addr vm.Addr, v uint32) {
	t.guard("WriteWord")
	t.node.space.WriteWord(t, addr, v)
}

// guard panics if op is called from inside a View callback.
func (t *Thread) guard(op string) {
	if t.viewing {
		panic(viewMisuse(op))
	}
}

// viewMisuse is guard's panic value, the runtime operation op called from
// inside a View callback. A type rather than a formatted string keeps
// guard, and the accessors it guards, small enough to inline.
type viewMisuse string

func (op viewMisuse) Error() string {
	return "munin: " + string(op) + " called inside a ScanRow (Thread.View) callback; the callback must not call into the runtime"
}

// AcquireLock blocks until the thread holds the lock (§2.1). Runtime work
// is charged as system time.
func (t *Thread) AcquireLock(id int) {
	defer t.endSystem(t.system())
	if t.node.obs == nil {
		t.node.acquireLock(t, id)
		return
	}
	t0 := t.proc.Now()
	t.node.acquireLock(t, id)
	t.node.obs.Latency(obs.OpAcquire, int64(t.proc.Now()-t0))
}

// ReleaseLock releases the lock, first flushing the delayed update queue
// (release consistency).
func (t *Thread) ReleaseLock(id int) {
	defer t.endSystem(t.system())
	if t.node.obs == nil {
		t.node.releaseLock(t, id)
		return
	}
	t0 := t.proc.Now()
	t.node.releaseLock(t, id)
	t.node.obs.Latency(obs.OpRelease, int64(t.proc.Now()-t0))
}

// WaitAtBarrier flushes the DUQ and blocks until the barrier's expected
// number of threads have arrived.
func (t *Thread) WaitAtBarrier(id int) {
	defer t.endSystem(t.system())
	if t.node.obs == nil {
		t.node.waitAtBarrier(t, id)
		return
	}
	t0 := t.proc.Now()
	t.node.waitAtBarrier(t, id)
	t.node.obs.Latency(obs.OpBarrier, int64(t.proc.Now()-t0))
}

// FetchAndOp performs a Fetch-and-Φ on word off of a reduction object,
// returning the previous value.
func (t *Thread) FetchAndOp(addr vm.Addr, off int, op wire.ReduceOp, operand uint32) uint32 {
	defer t.endSystem(t.system())
	return t.node.fetchAndOp(t, addr, off, op, operand)
}

// FetchAndAdd is FetchAndOp with addition.
func (t *Thread) FetchAndAdd(addr vm.Addr, off int, delta uint32) uint32 {
	return t.FetchAndOp(addr, off, wire.ReduceAdd, delta)
}

// FetchAndMin is FetchAndOp with signed minimum.
func (t *Thread) FetchAndMin(addr vm.Addr, off int, v uint32) uint32 {
	return t.FetchAndOp(addr, off, wire.ReduceMin, v)
}

// Flush propagates an object's buffered writes immediately (§2.5).
func (t *Thread) Flush(addr vm.Addr) {
	defer t.endSystem(t.system())
	t.node.flushObject(t, addr)
}

// Invalidate deletes the local copy of an object, migrating or updating
// remote state as needed (§2.5).
func (t *Thread) Invalidate(addr vm.Addr) {
	defer t.endSystem(t.system())
	t.node.invalidateObject(t, addr)
}

// PreAcquire fetches a read copy of an object in anticipation of use
// (§2.5).
func (t *Thread) PreAcquire(addr vm.Addr) {
	defer t.endSystem(t.system())
	t.node.preAcquire(t, addr)
}

// PhaseChange purges the object's accumulated sharing relationships
// (§2.5), for adaptive programs whose stable patterns shift between
// phases.
func (t *Thread) PhaseChange(addr vm.Addr) {
	defer t.endSystem(t.system())
	t.node.phaseChange(t, addr)
}

// ChangeAnnotation switches the object's sharing annotation and protocol
// (§2.5).
func (t *Thread) ChangeAnnotation(addr vm.Addr, annot protocol.Annotation) {
	defer t.endSystem(t.system())
	t.node.changeAnnotation(t, addr, annot)
}

// system switches the thread into system-time accounting for one runtime
// operation and returns the kind to restore; every entry point pairs it
// with endSystem as `defer t.endSystem(t.system())`.
//
// It is also where every synchronization operation checks that it is not
// called from inside a View callback.
func (t *Thread) system() rt.TimeKind {
	t.guard("a synchronization operation")
	return t.proc.SetKind(rt.KindSystem)
}

// endSystem ends the runtime operation: whatever it queued for other
// nodes leaves now (see outbox.go), and the accounting kind goes back.
func (t *Thread) endSystem(prev rt.TimeKind) {
	t.node.flush(t.proc)
	t.proc.SetKind(prev)
}
