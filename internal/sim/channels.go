package sim

// Mailbox is an unbounded FIFO queue of messages of type T between
// simulated processes. Put may be called from process or event context;
// Get blocks the calling process until a message is available.
type Mailbox[T any] struct {
	sim     *Sim
	name    string
	q       []T
	head    int // q[head:] are the queued messages
	waiters []*Proc
}

// NewMailbox returns an empty mailbox of s. name appears in deadlock
// reports.
func NewMailbox[T any](s *Sim, name string) *Mailbox[T] {
	return &Mailbox[T]{sim: s, name: name}
}

// Put appends v and wakes one waiting process, if any.
func (m *Mailbox[T]) Put(v T) {
	if len(m.q) == cap(m.q) && m.head*2 >= len(m.q) {
		// Full, and at least half of it already taken: slide the queue
		// down instead of growing the array.
		n := copy(m.q, m.q[m.head:])
		clear(m.q[n:])
		m.q, m.head = m.q[:n], 0
	}
	m.q = append(m.q, v)
	if len(m.waiters) > 0 {
		var w *Proc
		w, m.waiters = popWaiter(m.waiters)
		w.wakeLater()
	}
}

// Get removes and returns the oldest message, blocking p until one exists.
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.head == len(m.q) {
		m.waiters = append(m.waiters, p)
		p.park("mailbox ", Named(m.name))
	}
	v := m.q[m.head]
	var zero T
	m.q[m.head] = zero
	if m.head++; m.head == len(m.q) {
		// Empty: reuse the array from its start.
		m.q, m.head = m.q[:0], 0
	}
	return v
}

// Drain removes every queued message, oldest first, and calls fn with
// each: how a finished run gives back what nobody received.
func (m *Mailbox[T]) Drain(fn func(v T)) {
	for _, v := range m.q[m.head:] {
		fn(v)
	}
	clear(m.q)
	m.q, m.head = m.q[:0], 0
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return len(m.q) - m.head }

// popWaiter removes the oldest waiter, shifting the rest down so the
// slice keeps its array for the next append.
func popWaiter(ws []*Proc) (*Proc, []*Proc) {
	w := ws[0]
	n := copy(ws, ws[1:])
	ws[n] = nil
	return w, ws[:n]
}

// Future is a one-shot value that processes can wait on. It models a
// pending RPC reply: the requester parks on Wait and the dispatcher
// completes the future when the reply message arrives.
type Future struct {
	sim     *Sim
	name    Name
	done    bool
	v       any
	waiters []*Proc
}

// NewFuture returns an incomplete future. name appears in deadlock reports.
func (s *Sim) NewFuture(name Name) *Future {
	return &Future{sim: s, name: name}
}

// Reset makes a completed future incomplete again under a new name, for
// reuse once every waiter has returned from Wait.
func (f *Future) Reset(name Name) {
	f.name, f.done, f.v = name, false, nil
}

// Complete resolves the future with v and wakes all waiters. Completing a
// future twice panics: a reply must arrive exactly once.
func (f *Future) Complete(v any) {
	if f.done {
		panic("sim: future " + f.name.String() + " completed twice")
	}
	f.done = true
	f.v = v
	for _, w := range f.waiters {
		w.wakeLater()
	}
	// Emptied, not dropped: a reused future parks its next waiter in the
	// same array.
	clear(f.waiters)
	f.waiters = f.waiters[:0]
}

// Done reports whether the future has been completed.
func (f *Future) Done() bool { return f.done }

// Wait blocks p until the future completes, then returns its value.
func (f *Future) Wait(p *Proc) any {
	for !f.done {
		f.waiters = append(f.waiters, p)
		p.park("future ", f.name)
	}
	return f.v
}

// Cond is a broadcast-only condition variable for simulated processes.
// The condition itself is re-checked by the caller in the usual loop.
type Cond struct {
	sim     *Sim
	name    string
	waiters []*Proc
}

// NewCond returns a condition variable. name appears in deadlock reports.
func (s *Sim) NewCond(name string) *Cond {
	return &Cond{sim: s, name: name}
}

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park("cond ", Named(c.name))
}

// Broadcast wakes every process parked on the condition.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		w.wakeLater()
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Semaphore is a counting semaphore. Munin guards each object-directory
// entry with an "access control semaphore" (§3.2); because the simulated
// runtime can block mid-operation (e.g. while fetching a remote directory
// entry), mutual exclusion across block points still matters even though
// only one process runs at a time.
type Semaphore struct {
	sim     *Sim
	name    Name
	n       int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with n initial permits.
func (s *Sim) NewSemaphore(name Name, n int) *Semaphore {
	return &Semaphore{sim: s, name: name, n: n}
}

// Acquire takes a permit, blocking p until one is available.
func (sem *Semaphore) Acquire(p *Proc) {
	for sem.n == 0 {
		sem.waiters = append(sem.waiters, p)
		p.park("semaphore ", sem.name)
	}
	sem.n--
}

// Busy reports whether all permits are taken (some process holds the
// semaphore or is mid-operation under it).
func (sem *Semaphore) Busy() bool { return sem.n == 0 }

// TryAcquire takes a permit if one is available without blocking.
func (sem *Semaphore) TryAcquire() bool {
	if sem.n == 0 {
		return false
	}
	sem.n--
	return true
}

// Release returns a permit and wakes one waiter, if any.
func (sem *Semaphore) Release() {
	sem.n++
	if len(sem.waiters) > 0 {
		var w *Proc
		w, sem.waiters = popWaiter(sem.waiters)
		w.wakeLater()
	}
}
