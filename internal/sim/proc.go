package sim

import "fmt"

type procState int

const (
	procBlocked procState = iota
	procRunning
	procDone
)

// TimeKind classifies how a process's advancing time is accounted.
// The paper's evaluation (Tables 3–5) separates "User" time (application
// compute) from "System" time (Munin runtime overhead) on the root node;
// every Advance is charged to the process's current kind.
type TimeKind int

const (
	// KindUser is time spent executing application code.
	KindUser TimeKind = iota
	// KindSystem is time spent executing Munin runtime code.
	KindSystem
)

// Proc is a simulated thread of control. All methods must be called from
// the process's own goroutine (i.e. from within the fn passed to Spawn),
// except the read-only accessors Name, UserTime and SystemTime.
type Proc struct {
	sim   *Sim
	name  string
	wake  chan struct{}
	state procState
	// blockedOn and blockedName say what the process is parked on
	// ("mailbox ", "inbox[3]"); they are joined only for a deadlock
	// report, so parking builds no string.
	blockedOn, blockedName string

	kind   TimeKind
	user   Time
	system Time
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// UserTime returns the total virtual time this process has advanced while
// in KindUser.
func (p *Proc) UserTime() Time { return p.user }

// SystemTime returns the total virtual time this process has advanced while
// in KindSystem.
func (p *Proc) SystemTime() Time { return p.system }

// SetKind switches the accounting class for subsequent Advance calls and
// returns the previous kind, so callers can restore it with defer.
func (p *Proc) SetKind(k TimeKind) TimeKind {
	prev := p.kind
	p.kind = k
	return prev
}

// Kind returns the current accounting class.
func (p *Proc) Kind() TimeKind { return p.kind }

// Advance moves the virtual clock forward by d for this process, charging
// the time to the current TimeKind. Other processes and events scheduled in
// the interim run before Advance returns.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s advancing by negative duration %v", p.name, d))
	}
	switch p.kind {
	case KindUser:
		p.user += d
	case KindSystem:
		p.system += d
	}
	if d == 0 {
		return
	}
	s := p.sim
	s.schedule(s.now+d, p, nil)
	p.park("advancing", "")
}

// Yield reschedules the process at the current time behind already-pending
// events, letting same-instant work interleave deterministically.
func (p *Proc) Yield() {
	p.wakeLater()
	p.park("yielding", "")
}

// park blocks the process until an event resumes it. While it is parked
// the event loop runs on its goroutine: if the next resume is its own it
// simply returns, otherwise it hands control to the process resumed (or,
// once the run has ended, to Run) and waits to be woken. on+name says
// what it waits for in deadlock reports.
func (p *Proc) park(on, name string) {
	s := p.sim
	if s.current != p {
		panic(fmt.Sprintf("sim: park called by %s which is not the running process", p.name))
	}
	if s.draining {
		// Deferred code blocking while the process unwinds: nothing
		// will ever resume it, so keep unwinding.
		panic(drainSignal{})
	}
	p.state = procBlocked
	p.blockedOn, p.blockedName = on, name
	s.current = nil
	if next := s.dispatch(); next == p {
		s.current = p
	} else {
		s.handOver(next)
		<-p.wake
	}
	if s.draining {
		// Woken only to unwind: the run has ended (Stop, cancellation,
		// failure or deadlock) and this process will never be resumed
		// for real. The panic propagates to Spawn's recover.
		panic(drainSignal{})
	}
	p.state = procRunning
	p.blockedOn, p.blockedName = "", ""
}

// blockReason words what a parked process waits for, as deadlock reports
// print it.
func (p *Proc) blockReason() string { return p.blockedOn + p.blockedName }

// wakeLater schedules the process to be resumed at the current virtual time
// (behind pending same-time events). It must be called from event or
// process context while p is parked or about to park.
func (p *Proc) wakeLater() {
	s := p.sim
	s.schedule(s.now, p, nil)
}
