package sim

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestHeapPopsInTimeSeqOrder pushes events with random times full of ties,
// popping some along the way, and checks every pop against a stable sort
// by time of what was pushed: time first, then scheduling order.
func TestHeapPopsInTimeSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var pending []event // what the heap holds, stably sorted by time
	var seq uint64
	check := func(got event) {
		t.Helper()
		if want := pending[0]; got.t != want.t || got.seq != want.seq {
			t.Fatalf("pop = (t=%d seq=%d), want (t=%d seq=%d)", got.t, got.seq, want.t, want.seq)
		}
		pending = pending[1:]
	}
	for i := 0; i < 5000; i++ {
		seq++
		e := event{t: Time(rng.Intn(20)), seq: seq}
		h.push(e)
		at := sort.Search(len(pending), func(i int) bool { return pending[i].t > e.t })
		pending = slices.Insert(pending, at, e)
		if rng.Intn(3) == 0 {
			check(h.pop())
		}
	}
	for len(h) > 0 {
		check(h.pop())
	}
	if len(pending) != 0 {
		t.Fatalf("%d events never popped", len(pending))
	}
}

// TestHandoverAllocatesNothing pins the cost of a handover: a proc that
// advances 10,000 times and another that yields 10,000 times allocate a
// small constant in total, not something per call.
func TestHandoverAllocatesNothing(t *testing.T) {
	const calls = 10000
	s := New()
	s.Spawn("advancer", func(p *Proc) {
		for i := 0; i < calls; i++ {
			p.Advance(1)
		}
	})
	s.Spawn("yielder", func(p *Proc) {
		for i := 0; i < calls; i++ {
			p.Yield()
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 64 {
		t.Errorf("%d allocations for %d handovers, want a small constant", n, 2*calls)
	}
}

// endsCleanly runs s, checks its error with ok, and waits for the
// goroutine count to return to start: no process outlives Run.
func endsCleanly(t *testing.T, s *Sim, start int, ok func(error) bool) {
	t.Helper()
	err := s.Run()
	if !ok(err) {
		t.Errorf("Run() = %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkForever spawns n procs that park on a mailbox nobody fills, each
// recording in unwound whether it unwound only once the run had ended.
func parkForever(s *Sim, n int, unwound *[]bool) {
	m := NewMailbox[int](s, "never")
	for i := 0; i < n; i++ {
		s.Spawn("parked", func(p *Proc) {
			defer func() { *unwound = append(*unwound, s.draining) }()
			m.Get(p)
		})
	}
}

// allDrained checks that each of n parked procs unwound, and only by drain.
func allDrained(t *testing.T, unwound []bool, n int) {
	t.Helper()
	if len(unwound) != n {
		t.Fatalf("%d parked procs unwound, want %d", len(unwound), n)
	}
	for i, d := range unwound {
		if !d {
			t.Errorf("parked proc %d unwound while the run went on", i)
		}
	}
}

func TestHandoverProcPanicWhileOthersParked(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	var unwound []bool
	parkForever(s, 3, &unwound)
	boom := errors.New("boom")
	s.Spawn("panicker", func(p *Proc) {
		p.Advance(5)
		panic(boom)
	})
	endsCleanly(t, s, start, func(err error) bool { return errors.Is(err, boom) })
	allDrained(t, unwound, 3)
}

func TestHandoverStopFromProc(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	var unwound []bool
	parkForever(s, 2, &unwound)
	ticks := 0
	s.Spawn("stopper", func(p *Proc) {
		defer func() { unwound = append(unwound, s.draining) }()
		for {
			if ticks++; ticks == 10 {
				s.Stop()
			}
			p.Advance(1)
		}
	})
	endsCleanly(t, s, start, func(err error) bool { return err == nil })
	allDrained(t, unwound, 3)
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
}

func TestHandoverInterruptOnProcGoroutine(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	var unwound []bool
	parkForever(s, 2, &unwound)
	s.Spawn("ticker", func(p *Proc) {
		defer func() { unwound = append(unwound, s.draining) }()
		for {
			p.Advance(1)
		}
	})
	canceled := errors.New("canceled")
	polls := 0
	s.SetInterrupt(func() error {
		// The first poll is on Run's goroutine, before any proc has
		// run; the second is on the ticker's, 64 events later.
		if polls++; polls == 2 {
			return canceled
		}
		return nil
	})
	endsCleanly(t, s, start, func(err error) bool { return errors.Is(err, canceled) })
	allDrained(t, unwound, 3)
	// 64 events ran before the second poll: three starts and 61 ticks.
	if s.Now() != 61 {
		t.Errorf("Now = %v, want 61: the poll runs every 64 events", s.Now())
	}
}

func TestHandoverDeadlock(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	var unwound []bool
	parkForever(s, 2, &unwound)
	s.Spawn("sleeper", func(p *Proc) { p.Advance(10) })
	endsCleanly(t, s, start, func(err error) bool {
		var dl *DeadlockError
		return errors.As(err, &dl) && err.Error() ==
			"sim: deadlock, 2 process(es) blocked: parked: mailbox never; parked: mailbox never"
	})
	allDrained(t, unwound, 2)
}

func TestHandoverEventCallbackPanic(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	var unwound []bool
	parkForever(s, 2, &unwound)
	// The callback fires while the advancer is parked, so the loop runs
	// it on the advancer's goroutine.
	s.Spawn("advancer", func(p *Proc) {
		defer func() { unwound = append(unwound, s.draining) }()
		s.After(3, func() { panic("callback") })
		p.Advance(10)
	})
	endsCleanly(t, s, start, func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "callback")
	})
	allDrained(t, unwound, 3)
}

func TestHandoverProcFinishesWhileOthersWait(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	m := NewMailbox[int](s, "box")
	got := 0
	for i := 0; i < 3; i++ {
		s.Spawn("waiter", func(p *Proc) { got += m.Get(p) })
	}
	s.Spawn("producer", func(p *Proc) {
		p.Advance(1)
		for i := 1; i <= 3; i++ {
			m.Put(i)
		}
	})
	endsCleanly(t, s, start, func(err error) bool { return err == nil })
	if got != 6 {
		t.Errorf("waiters received %d in total, want 6", got)
	}
}

// TestMailboxOrderWhileNeverEmpty keeps a mailbox growing while it is
// drained, so its array is both grown and slid down, and checks that
// messages still come out in the order they went in.
func TestMailboxOrderWhileNeverEmpty(t *testing.T) {
	m := NewMailbox[int](New(), "box")
	rng := rand.New(rand.NewSource(1))
	put, got := 0, 0
	take := func() {
		t.Helper()
		if v := m.Get(nil); v != got { // non-empty: Get does not park
			t.Fatalf("Get = %d, want %d", v, got)
		}
		got++
	}
	for i := 0; i < 20000; i++ {
		if m.Len() == 0 || rng.Intn(5) < 3 {
			m.Put(put)
			put++
		} else {
			take()
		}
	}
	for m.Len() > 0 {
		take()
	}
	if got != put {
		t.Fatalf("got %d messages, put %d", got, put)
	}
}
