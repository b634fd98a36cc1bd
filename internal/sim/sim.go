package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// event is a scheduled action: resume proc p, or, when p is nil, run the
// callback fn. Events with equal times run in scheduling order (seq),
// which makes the simulation fully deterministic.
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
}

// before is the one ordering of events: by time, then by scheduling order.
func (e *event) before(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events ordered by before.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the references the moved copy still holds
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// Sim is a discrete-event simulation. The zero value is not usable; call New.
//
// Exactly one simulated process runs at any instant. Each process runs as
// a coroutine (iter.Pull) and Run is the kernel that resumes them: a
// process that parks runs the event loop itself, returns straight away
// when the next event is its own resume, and otherwise yields the chosen
// process to Run, which resumes it. A handover is thus one coroutine
// switch into Run and one out, with no channel and no scheduler in
// between. Code inside processes needs no locking and observes a
// consistent virtual clock.
type Sim struct {
	now      Time
	seq      uint64
	events   eventHeap
	procs    []*Proc
	current  *Proc
	next     *Proc // the process a parking one chose for Run to resume
	failure  any   // first panic raised by a process or an event callback
	stopped  bool
	draining bool
	// interrupt, if set, is polled every 64 events; a non-nil return
	// stops the event loop with that error (context cancellation), kept
	// in interrupted. polls counts events popped, here rather than in a
	// local because the loop runs in whichever process parks.
	interrupt   func() error
	interrupted error
	polls       uint
}

// New returns an empty simulation with the clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run at virtual time t. fn runs in event context and
// must not block; it may schedule further events, complete futures, or post
// to mailboxes. Scheduling in the past is an error.
func (s *Sim) At(t Time, fn func()) {
	s.schedule(t, nil, fn)
}

// After schedules fn to run d from now. See At for the constraints on fn.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// schedule queues an event at t that resumes p or, if p is nil, runs fn.
func (s *Sim) schedule(t Time, p *Proc, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	s.events.push(event{t: t, seq: s.seq, p: p, fn: fn})
}

// Spawn creates a new process named name executing fn and schedules it to
// start at the current virtual time. The name appears in deadlock reports.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, state: procBlocked}
	// No stop function is kept: Run resumes every coroutine to its end.
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		if s.draining {
			// Resumed only to unwind: the run ended before this process
			// ever started.
			p.state = procDone
			return
		}
		p.state = procRunning
		defer func() {
			if r := recover(); r != nil {
				if _, unwinding := r.(drainSignal); !unwinding && s.failure == nil {
					s.failure = r
				}
			}
			p.state = procDone
			s.current = nil
		}()
		fn(p)
	})
	s.procs = append(s.procs, p)
	s.schedule(s.now, p, nil)
	return p
}

// dispatch runs events until one resumes a process, which it returns, or
// the run ends (no events, a failure, Stop or an interrupt), when it
// returns nil. A panicking event callback is recovered into s.failure
// here, so it ends the run the same way in Run or in a parking process
// and never unwinds through that process's deferred code.
func (s *Sim) dispatch() *Proc {
	for len(s.events) > 0 && s.failure == nil && !s.stopped {
		if s.interrupt != nil && s.polls%64 == 0 {
			if err := s.interrupt(); err != nil {
				s.interrupted = err
				s.stopped = true
				return nil
			}
		}
		s.polls++
		e := s.events.pop()
		s.now = e.t
		if e.p == nil {
			s.call(e.fn)
		} else if e.p.state != procDone {
			return e.p
		}
	}
	return nil
}

// call runs an event callback, recording a panic as the run's failure.
func (s *Sim) call(fn func()) {
	defer func() {
		if r := recover(); r != nil && s.failure == nil {
			s.failure = r
		}
	}()
	fn()
}

// DeadlockError reports processes still blocked when the event queue drained.
type DeadlockError struct {
	// Blocked lists "name: reason" for every parked process.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d process(es) blocked: %s",
		len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// SetInterrupt installs a poll function the event loop calls between
// events (every 64 events, to keep the hot loop cheap). A non-nil return
// stops the run and becomes Run's error — this is how context
// cancellation reaches the single-threaded event loop.
func (s *Sim) SetInterrupt(f func() error) { s.interrupt = f }

// Run executes events until none remain, a process or event callback
// panics, or Stop is called. It returns the value a process panicked with
// (wrapped if needed), or a *DeadlockError if processes remain blocked
// with no pending events. A clean completion returns nil. However Run
// ends, processes still parked are unwound before it returns, so a
// stopped, canceled or deadlocked run leaks no goroutines. A process that
// calls runtime.Goexit (t.FailNow) ends Run's goroutine the same way,
// after the others are unwound.
//
// Run is the kernel loop: it resumes the process dispatch chose, and when
// that process parks resumes the one it chose in turn, or, when it
// finishes, dispatches the next itself.
func (s *Sim) Run() error {
	defer s.drain()
	for p := s.dispatch(); p != nil; {
		s.current = p
		if _, parked := p.resume(); parked {
			p = s.next
		} else {
			p = s.dispatch()
		}
	}
	return s.result()
}

// result is Run's error once the event loop has ended.
func (s *Sim) result() error {
	if s.failure != nil {
		if err, ok := s.failure.(error); ok {
			return err
		}
		return fmt.Errorf("sim: process panic: %v", s.failure)
	}
	if s.stopped {
		return s.interrupted
	}
	var blocked []string
	for _, p := range s.procs {
		if p.state == procBlocked {
			blocked = append(blocked, p.name+": "+p.blockReason())
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Blocked: blocked}
	}
	return nil
}

// drainSignal unwinds a parked process once the run has ended.
type drainSignal struct{}

// drain resumes every still-parked process with the draining flag set:
// park (or a process's start in Spawn) observes it and unwinds instead of
// continuing, so each coroutine finishes now rather than living as long
// as the host process. Must run after the event loop has ended.
func (s *Sim) drain() {
	s.draining = true
	for i := 0; i < len(s.procs); i++ {
		if p := s.procs[i]; p.state == procBlocked {
			s.current = p
			p.resume()
		}
	}
	s.current = nil
}

// Stop makes Run return after the current event completes. Blocked
// processes are unwound before Run returns.
func (s *Sim) Stop() { s.stopped = true }
