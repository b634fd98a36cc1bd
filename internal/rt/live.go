package rt

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/sim"
	"munin/internal/wire"
)

// Live is the real concurrent runtime shared by the Chan and Mux
// transports. Each node is a monitor: its procs (user threads plus the
// dispatcher) are goroutines serialized by the node mutex, which is
// released at exactly the points where the simulator yields — Advance,
// Send, and every blocking Wait/Acquire/Recv. Nodes run against real
// time and in true parallel; only delivery differs between Chan
// (synchronous in-process enqueue) and Mux (loopback sockets).
type Live struct {
	name  string
	cost  model.CostModel
	nodes []*liveNode
	start time.Time

	// deliver moves one encoded message toward its destination inbox and
	// takes ownership of bp, the pooled buffer holding the encoding: it
	// either hands bp on as an envelope's frame or returns it to the pool.
	deliver func(env Envelope, bp *[]byte)
	// shutdown tears down delivery resources after every proc exited.
	shutdown func()

	trace  func(Envelope)
	faults *Faults

	stopOnce sync.Once
	stopped  atomic.Bool
	done     chan struct{}
	// ctx, when bound, cancels the run: a watcher goroutine (started by
	// Run alongside the deadlock watchdog) records ctx.Err() as the
	// failure and stops the transport, unwinding every parked proc.
	ctx context.Context

	failMu  sync.Mutex
	failure error

	wg sync.WaitGroup
	// running counts procs not parked; queued counts messages sitting in
	// inboxes; inflight counts messages sent but not yet enqueued (socket
	// transit). activity increments on every state change. The
	// deadlock watchdog declares a deadlock only after observing
	// running == queued == inflight == 0 across two samples with no
	// activity in between.
	running  atomic.Int64
	queued   atomic.Int64
	inflight atomic.Int64
	activity atomic.Uint64
}

type liveNode struct {
	rt *Live
	id int
	mu sync.Mutex
	// inbox[head:] are the delivered envelopes nobody has received yet,
	// oldest first. receive rewinds the slice whenever it drains, so a node
	// whose dispatcher keeps up queues into one backing array for the
	// whole run.
	inbox []Envelope
	head  int
	procs []*liveProc
	// stats counts what this node sent and what was delivered to it, under
	// its own monitor; Live.Stats sums the nodes.
	stats Stats
}

// liveProc is one goroutine under its node's monitor. Fields are
// accessed only while the monitor is held (or post-run).
type liveProc struct {
	node   *liveNode
	name   string
	kind   TimeKind
	user   Time
	system Time
	// cond, on the node mutex, is where this proc alone parks: whoever
	// fires what it waits for signals it and nobody else.
	cond *sync.Cond
	// parkedOn and parkedAt say what the proc is blocked on, if it is: the
	// kind, and the *liveFuture or *liveSemaphore (nil for the inbox).
	// liveNode.wake matches on them, and a deadlock report words them.
	parkedOn parkKind
	parkedAt any
	locked   bool
}

// parkKind is the kind of primitive a parked proc waits on.
type parkKind uint8

const (
	notParked parkKind = iota
	onInbox
	onFuture
	onSemaphore
)

// blockReason words what the proc is parked on the way the simulator's
// deadlock report does, or returns "" for a proc that is not parked.
func (p *liveProc) blockReason() string {
	switch p.parkedOn {
	case onInbox:
		return "inbox[" + p.name + "]"
	case onFuture:
		return "future " + p.parkedAt.(*liveFuture).name.String()
	case onSemaphore:
		return "semaphore " + p.parkedAt.(*liveSemaphore).name.String()
	}
	return ""
}

// stopSignal unwinds a proc parked (or yielding) on a stopped transport.
type stopSignal struct{}

// NewChan builds the in-process concurrent transport of n nodes. The
// cost model is used only to account user/system time; execution pace is
// real time.
func NewChan(cost model.CostModel, n int) *Live {
	l := newLive("chan", cost, n)
	l.deliver = l.deliverChan
	return l
}

// deliverChan enqueues the sender's encode buffer as the envelope's
// frame: the buffer becomes the receiver's, exactly as a frame read off a
// mux lane does, so the receiver never aliases memory the sender still
// uses, and nothing is decoded until the receiver decodes it.
func (l *Live) deliverChan(env Envelope, bp *[]byte) {
	env.Buf = bp
	l.enqueue(env)
}

func newLive(name string, cost model.CostModel, n int) *Live {
	if n <= 0 || n > network.MaxNodes {
		panic(fmt.Sprintf("rt: invalid node count %d", n))
	}
	l := &Live{
		name:  name,
		cost:  cost,
		start: time.Now(),
		done:  make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		l.nodes = append(l.nodes, &liveNode{rt: l, id: i})
	}
	return l
}

// Name identifies the transport.
func (l *Live) Name() string { return l.name }

// Nodes returns the node count.
func (l *Live) Nodes() int { return len(l.nodes) }

// Now returns the real time elapsed since the transport was created.
// The clock intentionally starts at construction, not Run: procs spawn
// (and may stamp envelopes) before Run is called, and a single origin
// keeps every stamp consistent. Short runs therefore include setup time
// (e.g. the Mux transport's dialing) in Elapsed — wall-clock numbers on
// the live transports are informational, not modeled.
func (l *Live) Now() Time { return Time(time.Since(l.start)) }

// Stats returns the accumulated traffic statistics, summed over the
// nodes that counted them.
func (l *Live) Stats() *Stats {
	var total Stats
	for _, n := range l.nodes {
		n.mu.Lock()
		for k := range total.Messages {
			total.Messages[k] += n.stats.Messages[k]
			total.Bytes[k] += n.stats.Bytes[k]
		}
		total.Sends += n.stats.Sends
		total.BatchEnvelopes += n.stats.BatchEnvelopes
		total.BatchedMessages += n.stats.BatchedMessages
		total.Delivered += n.stats.Delivered
		n.mu.Unlock()
	}
	return &total
}

// SetTrace installs a delivery observer. It runs with the destination
// node's monitor held, possibly concurrently for different destinations,
// and must not call back into the transport.
func (l *Live) SetTrace(fn func(Envelope)) { l.trace = fn }

// SetFaults installs fault injection. Call before Run.
func (l *Live) SetFaults(f *Faults) { l.faults = f }

// Spawn starts a proc under node's monitor.
func (l *Live) Spawn(node int, name string, fn func(p Proc)) {
	n := l.nodes[node]
	p := &liveProc{node: n, name: name, cond: sync.NewCond(&n.mu)}
	l.wg.Add(1)
	l.running.Add(1)
	l.activity.Add(1)
	go func() {
		defer l.wg.Done()
		n.mu.Lock()
		p.locked = true
		n.procs = append(n.procs, p)
		defer func() {
			if r := recover(); r != nil {
				if _, stopping := r.(stopSignal); !stopping {
					l.fail(toError(r))
				}
			}
			if p.locked {
				p.locked = false
				n.mu.Unlock()
			}
			l.running.Add(-1)
			l.activity.Add(1)
		}()
		fn(p)
	}()
}

// toError shapes a recovered panic value like the simulator does.
func toError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("rt: proc panic: %v", r)
}

// fail records the first proc failure and stops the transport.
func (l *Live) fail(err error) {
	l.failMu.Lock()
	if l.failure == nil {
		l.failure = err
	}
	l.failMu.Unlock()
	l.Stop()
}

// Stop makes Run return; parked procs unwind at their next wakeup.
func (l *Live) Stop() {
	l.stopOnce.Do(func() {
		l.stopped.Store(true)
		close(l.done)
	})
}

// BindContext makes Run fail with ctx.Err() when ctx is canceled. Bind
// before Run.
func (l *Live) BindContext(ctx context.Context) { l.ctx = ctx }

// Run waits until Stop (a clean finish, a proc failure, a canceled
// context, or the deadlock watchdog), unwinds every parked proc, and
// returns the first failure.
func (l *Live) Run() error {
	if l.ctx != nil {
		go func() {
			select {
			case <-l.ctx.Done():
				l.fail(l.ctx.Err())
			case <-l.done:
			}
		}()
	}
	watchdogDone := make(chan struct{})
	go l.watchdog(watchdogDone)
	<-l.done
	// Wake every parked proc so it observes the stop and unwinds.
	for {
		l.wakeAll()
		if waitTimeout(&l.wg, 10*time.Millisecond) {
			break
		}
	}
	<-watchdogDone
	if l.shutdown != nil {
		l.shutdown()
	}
	// Nothing delivers any more: whatever a stopped dispatcher never
	// picked up still holds its receive buffer.
	l.releaseInboxes()
	l.failMu.Lock()
	defer l.failMu.Unlock()
	return l.failure
}

// waitTimeout waits on wg for at most d; true means it finished.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	c := make(chan struct{})
	go func() { wg.Wait(); close(c) }()
	select {
	case <-c:
		return true
	case <-time.After(d):
		return false
	}
}

// wakeAll signals every proc of every node, whatever it is parked on: the
// transport has stopped, and each one unwinds when it looks.
func (l *Live) wakeAll() {
	for _, n := range l.nodes {
		n.mu.Lock()
		for _, p := range n.procs {
			p.cond.Signal()
		}
		n.mu.Unlock()
	}
}

// wake signals the procs of the node parked on exactly this: the inbox
// (at nil), one future or one semaphore. Must hold the monitor. A proc
// parked on something else would only find its own condition unchanged
// and park again, at the price of two goroutine switches.
func (n *liveNode) wake(on parkKind, at any) {
	for _, p := range n.procs {
		if p.parkedOn == on && p.parkedAt == at {
			p.cond.Signal()
		}
	}
}

// watchdog detects global deadlock: every proc parked, nothing queued,
// nothing in flight, across two consecutive samples with no activity in
// between. The discrete-event kernel gets this for free (event queue
// drained); real concurrency needs the double-sampled counters.
func (l *Live) watchdog(done chan struct{}) {
	defer close(done)
	// A runnable-but-unscheduled goroutine must not look like a
	// deadlock: every wakeup bumps activity first, so demand a long run
	// of fully-idle samples with an unchanged activity counter.
	const probe = 5 * time.Millisecond
	var lastSeq uint64
	idle := 0
	for {
		select {
		case <-l.done:
			return
		case <-time.After(probe):
		}
		seq := l.activity.Load()
		if l.running.Load() == 0 && l.queued.Load() == 0 && l.inflight.Load() == 0 {
			if idle > 0 && seq == lastSeq {
				idle++
			} else {
				idle = 1
			}
		} else {
			idle = 0
		}
		lastSeq = seq
		if idle >= 6 {
			if blocked := l.blockedReasons(); len(blocked) > 0 {
				l.fail(&sim.DeadlockError{Blocked: blocked})
			} else {
				l.Stop()
			}
			return
		}
	}
}

// blockedReasons collects "name: reason" for every parked proc.
func (l *Live) blockedReasons() []string {
	var out []string
	for _, n := range l.nodes {
		n.mu.Lock()
		for _, p := range n.procs {
			if reason := p.blockReason(); reason != "" {
				out = append(out, p.name+": "+reason)
			}
		}
		n.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// liveProcOf recovers the concrete proc and asserts it belongs to node.
func (l *Live) liveProcOf(p Proc, node int) *liveProc {
	lp, ok := p.(*liveProc)
	if !ok {
		panic(fmt.Sprintf("rt: %s transport used with foreign proc %T", l.name, p))
	}
	if node >= 0 && lp.node.id != node {
		panic(fmt.Sprintf("rt: proc %s of node %d used as node %d", lp.name, lp.node.id, node))
	}
	return lp
}

// NewFuture creates a one-shot value owned by node.
func (l *Live) NewFuture(node int, name Name) Future {
	return &liveFuture{n: l.nodes[node], name: name}
}

// NewSemaphore creates a counting semaphore owned by node.
func (l *Live) NewSemaphore(node int, name Name, permits int) Semaphore {
	return &liveSemaphore{n: l.nodes[node], name: name, permits: permits}
}

// Send encodes msg into a pooled buffer and sends it (SendFrame).
func (l *Live) Send(p Proc, src, dst int, msg wire.Message) {
	l.SendFrame(p, src, dst, wire.Encode(msg))
}

// SendFrame applies fault injection to the encoded message in bp and
// hands bp to the delivery layer, which owns it from then on. The
// sender's monitor is released around delivery: a send is a yield point
// on the simulator too, and holding two node monitors at once (src then
// dst) could deadlock against a concurrent dst-to-src send.
func (l *Live) SendFrame(p Proc, src, dst int, bp *[]byte) {
	if dst < 0 || dst >= len(l.nodes) {
		panic(fmt.Sprintf("rt: send to invalid node %d", dst))
	}
	if src == dst {
		panic(fmt.Sprintf("rt: node %d sending %v to itself", src, wire.FrameKind(*bp)))
	}
	lp := l.liveProcOf(p, src)
	lp.charge(l.cost.SendCPU(wire.FrameRiders(*bp)))
	if l.faults.Cut(src, dst, *bp) {
		// Whole-envelope semantics: a dropped batch loses every rider.
		wire.PutBuf(bp)
		return
	}
	lp.node.stats.CountFrame(*bp) // under the sender's monitor, held until exit
	env := Envelope{Src: src, Dst: dst, Bytes: len(*bp) + network.HeaderBytes, SentAt: l.Now()}
	lp.exit()
	l.deliver(env, bp)
	lp.enter()
	lp.checkStop()
}

// enqueue delivers one envelope into its destination inbox. Callers must
// not hold any node monitor.
func (l *Live) enqueue(env Envelope) {
	n := l.nodes[env.Dst]
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Delivered++
	env.DeliveredAt = l.Now()
	if l.trace != nil {
		l.trace(network.Traced(env))
	}
	if n.head > 0 && len(n.inbox) == cap(n.inbox) {
		// Full only because of what has been received: close the gap
		// instead of growing.
		k := copy(n.inbox, n.inbox[n.head:])
		clear(n.inbox[k:])
		n.inbox, n.head = n.inbox[:k], 0
	}
	pos := len(n.inbox)
	if l.faults != nil && l.faults.ReorderSeed != 0 {
		// Fault-injected reordering: insert ahead of queued messages
		// from OTHER senders; per-(src,dst) FIFO always holds.
		floor := n.head
		for i := len(n.inbox) - 1; i >= n.head; i-- {
			if n.inbox[i].Src == env.Src {
				floor = i + 1
				break
			}
		}
		if p := int(l.faults.Jitter(int64(pos-floor) + 1)); p > 0 {
			pos -= p
			l.faults.CountReorder()
		}
	}
	n.inbox = append(n.inbox, Envelope{})
	copy(n.inbox[pos+1:], n.inbox[pos:])
	n.inbox[pos] = env
	l.queued.Add(1)
	l.activity.Add(1)
	n.wake(onInbox, nil)
}

// Recv is RecvFrame plus decode.
func (l *Live) Recv(p Proc, node int) Envelope {
	return network.Decoded(l.RecvFrame(p, node))
}

// RecvFrame blocks p until a frame arrives for node, takes the oldest
// envelope out of the node's inbox and charges the receive path.
func (l *Live) RecvFrame(p Proc, node int) Envelope {
	lp := l.liveProcOf(p, node)
	n := lp.node
	for len(n.inbox) == 0 {
		lp.checkStop()
		lp.block(onInbox, nil)
	}
	env := n.inbox[n.head]
	n.inbox[n.head] = Envelope{}
	n.head++
	if n.head == len(n.inbox) {
		n.inbox, n.head = n.inbox[:0], 0
	}
	l.queued.Add(-1)
	l.activity.Add(1)
	lp.charge(l.cost.MsgRecvCPU)
	return env
}

// releaseInboxes returns the frames still queued to the pool. Called by
// Run once every proc (and, via the shutdown hook, every socket reader)
// has exited.
func (l *Live) releaseInboxes() {
	for _, n := range l.nodes {
		n.mu.Lock()
		for i := range n.inbox {
			n.inbox[i].Release()
		}
		n.inbox, n.head = nil, 0
		n.mu.Unlock()
	}
}

// ---- liveProc -------------------------------------------------------

// Name returns the proc's name.
func (p *liveProc) Name() string { return p.name }

// Now returns real elapsed time.
func (p *liveProc) Now() Time { return p.node.rt.Now() }

// UserTime returns accumulated user-kind charges.
func (p *liveProc) UserTime() Time { return p.user }

// SystemTime returns accumulated system-kind charges.
func (p *liveProc) SystemTime() Time { return p.system }

// SetKind switches the accounting class, returning the previous one.
func (p *liveProc) SetKind(k TimeKind) TimeKind {
	prev := p.kind
	p.kind = k
	return prev
}

// Kind returns the current accounting class.
func (p *liveProc) Kind() TimeKind { return p.kind }

// charge accounts d without yielding.
func (p *liveProc) charge(d Time) {
	if p.kind == KindUser {
		p.user += d
	} else {
		p.system += d
	}
}

// Advance charges d and yields the monitor: on the simulator other procs
// run while virtual time passes, so the live runtimes open the same
// interleaving window (without sleeping — real work takes real time).
func (p *liveProc) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("rt: %s advancing by negative duration %v", p.name, d))
	}
	p.charge(d)
	if d == 0 {
		return
	}
	p.yield()
}

// Yield lets other procs of the node interleave.
func (p *liveProc) Yield() { p.yield() }

func (p *liveProc) yield() {
	p.exit()
	runtime.Gosched()
	p.enter()
	p.checkStop()
}

// exit releases the node monitor; enter reacquires it.
func (p *liveProc) exit() {
	p.locked = false
	p.node.mu.Unlock()
}

func (p *liveProc) enter() {
	p.node.mu.Lock()
	p.locked = true
}

// checkStop unwinds the proc when the transport has stopped. Must hold
// the monitor.
func (p *liveProc) checkStop() {
	if p.node.rt.stopped.Load() {
		panic(stopSignal{})
	}
}

// block parks the proc, recording what on, until liveNode.wake is called
// for that or the transport stops. Must hold the monitor; the caller
// re-checks its condition in a loop.
func (p *liveProc) block(on parkKind, at any) {
	rt := p.node.rt
	p.parkedOn, p.parkedAt = on, at
	rt.running.Add(-1)
	rt.activity.Add(1)
	p.cond.Wait()
	rt.running.Add(1)
	rt.activity.Add(1)
	p.parkedOn, p.parkedAt = notParked, nil
}

// ---- blocking primitives -------------------------------------------

type liveFuture struct {
	n    *liveNode
	name Name
	done bool
	v    any
}

// Complete resolves the future. The caller must be a proc of the owning
// node holding its monitor (dispatcher or user thread context).
func (f *liveFuture) Complete(v any) {
	if f.done {
		panic("rt: future " + f.name.String() + " completed twice")
	}
	f.done = true
	f.v = v
	f.n.rt.activity.Add(1)
	f.n.wake(onFuture, f)
}

// Done reports whether the future has been completed.
func (f *liveFuture) Done() bool { return f.done }

// Reset makes the completed future incomplete again under name. Must
// hold the owning node's monitor.
func (f *liveFuture) Reset(name Name) { f.name, f.done, f.v = name, false, nil }

// Wait blocks p until the future completes.
func (f *liveFuture) Wait(p Proc) any {
	lp := f.n.rt.liveProcOf(p, f.n.id)
	for !f.done {
		lp.checkStop()
		lp.block(onFuture, f)
	}
	return f.v
}

type liveSemaphore struct {
	n       *liveNode
	name    Name
	permits int
}

// Acquire takes a permit, blocking p until one is available.
func (s *liveSemaphore) Acquire(p Proc) {
	lp := s.n.rt.liveProcOf(p, s.n.id)
	for s.permits == 0 {
		lp.checkStop()
		lp.block(onSemaphore, s)
	}
	s.permits--
}

// TryAcquire takes a permit if one is available without blocking.
func (s *liveSemaphore) TryAcquire() bool {
	if s.permits == 0 {
		return false
	}
	s.permits--
	return true
}

// Busy reports whether all permits are taken.
func (s *liveSemaphore) Busy() bool { return s.permits == 0 }

// Release returns a permit and wakes waiters.
func (s *liveSemaphore) Release() {
	s.permits++
	s.n.rt.activity.Add(1)
	s.n.wake(onSemaphore, s)
}
