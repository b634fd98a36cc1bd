package rt

import (
	"context"
	"fmt"

	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/sim"
	"munin/internal/wire"
)

// Sim is the deterministic transport: the discrete-event kernel of
// internal/sim plus the modeled Ethernet of internal/network. *sim.Proc
// satisfies Proc directly; futures and semaphores are thin adapters that
// recover the concrete proc type at the block point.
type Sim struct {
	sim *sim.Sim
	net *network.Network
}

// NewSim builds a simulated transport of n nodes under the given cost
// model.
func NewSim(cost model.CostModel, n int) *Sim {
	s := sim.New()
	return &Sim{sim: s, net: network.New(s, cost, n)}
}

// Name identifies the transport.
func (t *Sim) Name() string { return "sim" }

// Sim exposes the underlying simulation (tests and the bench harness).
func (t *Sim) Sim() *sim.Sim { return t.sim }

// Nodes returns the node count.
func (t *Sim) Nodes() int { return t.net.Nodes() }

// Now returns the current virtual time.
func (t *Sim) Now() Time { return t.sim.Now() }

// Spawn starts a simulated process. The node only matters to the live
// transports; here every proc shares the one cooperative scheduler.
func (t *Sim) Spawn(node int, name string, fn func(p Proc)) {
	t.sim.Spawn(name, func(p *sim.Proc) { fn(p) })
}

// simProc recovers the concrete process at a block point.
func simProc(p Proc) *sim.Proc {
	sp, ok := p.(*sim.Proc)
	if !ok {
		panic(fmt.Sprintf("rt: sim transport used with foreign proc %T", p))
	}
	return sp
}

type simFuture struct{ f *sim.Future }

func (f simFuture) Complete(v any)  { f.f.Complete(v) }
func (f simFuture) Done() bool      { return f.f.Done() }
func (f simFuture) Wait(p Proc) any { return f.f.Wait(simProc(p)) }

type simSemaphore struct{ s *sim.Semaphore }

func (s simSemaphore) Acquire(p Proc)   { s.s.Acquire(simProc(p)) }
func (s simSemaphore) TryAcquire() bool { return s.s.TryAcquire() }
func (s simSemaphore) Busy() bool       { return s.s.Busy() }
func (s simSemaphore) Release()         { s.s.Release() }

// NewFuture creates a one-shot value procs can wait on.
func (t *Sim) NewFuture(node int, name string) Future {
	return simFuture{t.sim.NewFuture(name)}
}

// NewSemaphore creates a counting semaphore.
func (t *Sim) NewSemaphore(node int, name string, permits int) Semaphore {
	return simSemaphore{t.sim.NewSemaphore(name, permits)}
}

// Send encodes msg and transmits it over the modeled Ethernet.
func (t *Sim) Send(p Proc, src, dst int, msg wire.Message) {
	t.net.Send(simProc(p), src, dst, msg)
}

// SendFrame transmits an encoded message over the modeled Ethernet and
// takes ownership of bp.
func (t *Sim) SendFrame(p Proc, src, dst int, bp *[]byte) {
	t.net.SendFrame(simProc(p), src, dst, bp)
}

// Recv blocks until a message arrives for node.
func (t *Sim) Recv(p Proc, node int) Envelope {
	return t.net.Recv(simProc(p), node)
}

// Stats returns the accumulated traffic statistics.
func (t *Sim) Stats() *Stats { return t.net.Stats() }

// SetTrace installs a delivery observer.
func (t *Sim) SetTrace(fn func(Envelope)) { t.net.Trace = fn }

// SetFaults installs fault injection.
func (t *Sim) SetFaults(f *Faults) { t.net.Faults = f }

// BindContext makes Run stop with ctx.Err() when ctx is canceled; the
// event loop polls it between events.
func (t *Sim) BindContext(ctx context.Context) {
	t.sim.SetInterrupt(ctx.Err)
}

// Run executes events until Stop, a proc failure, or deadlock.
func (t *Sim) Run() error { return t.sim.Run() }

// Stop makes Run return after the current event.
func (t *Sim) Stop() { t.sim.Stop() }
