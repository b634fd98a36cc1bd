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

// errExited stands for a Run that did not return: its goroutine exited,
// as runtime.Goexit (t.FailNow) in a process makes it.
var errExited = errors.New("Run's goroutine exited")

// endsCleanly runs s on a goroutine of its own, checks its error with ok
// (errExited if Run never returned), and waits for the goroutine count
// to return to start: no process outlives Run.
func endsCleanly(t *testing.T, s *Sim, start int, ok func(error) bool) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		err := errExited
		defer func() { errc <- err }()
		err = s.Run()
	}()
	if err := <-errc; !ok(err) {
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

// TestHandoverGoexitWhileOthersParked: a process that calls
// runtime.Goexit, as t.FailNow does, ends Run's goroutine in turn, and
// the processes still parked are unwound before it goes.
func TestHandoverGoexitWhileOthersParked(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	var unwound []bool
	parkForever(s, 3, &unwound)
	s.Spawn("ticker", func(p *Proc) {
		defer func() { unwound = append(unwound, s.draining) }()
		for {
			p.Advance(1)
		}
	})
	s.Spawn("quitter", func(p *Proc) {
		p.Advance(5)
		runtime.Goexit()
	})
	endsCleanly(t, s, start, func(err error) bool { return err == errExited })
	allDrained(t, unwound, 4)
	if s.Now() != 5 {
		t.Errorf("Now = %v, want 5: nothing runs after the Goexit", s.Now())
	}
}

// TestHandoverSpawnFromProc: a process spawned by a running one starts
// at the spawner's time, behind the events already pending then.
func TestHandoverSpawnFromProc(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	m := NewMailbox[Time](s, "box")
	var order []string
	s.Spawn("other", func(p *Proc) {
		p.Advance(3)
		order = append(order, "other")
	})
	s.Spawn("parent", func(p *Proc) {
		p.Advance(3)
		s.Spawn("child", func(c *Proc) {
			order = append(order, "child")
			c.Advance(2)
			m.Put(c.Now())
		})
		order = append(order, "parent")
		if got := m.Get(p); got != 5 {
			t.Errorf("child put at %v, want 5", got)
		}
	})
	endsCleanly(t, s, start, func(err error) bool { return err == nil })
	if want := []string{"other", "parent", "child"}; !slices.Equal(order, want) {
		t.Errorf("ran in order %v, want %v", order, want)
	}
}

// TestHandoverStopBeforeStart: processes that never started — spawned
// before a Stop that precedes Run, or by a process in the step that
// stops the run — are unwound without running their bodies.
func TestHandoverStopBeforeStart(t *testing.T) {
	t.Run("before Run", func(t *testing.T) {
		start := runtime.NumGoroutine()
		s := New()
		started := 0
		for i := 0; i < 3; i++ {
			s.Spawn("never", func(p *Proc) { started++ })
		}
		s.Stop()
		endsCleanly(t, s, start, func(err error) bool { return err == nil })
		if started != 0 {
			t.Errorf("%d processes started after Stop", started)
		}
	})
	t.Run("from a process", func(t *testing.T) {
		start := runtime.NumGoroutine()
		s := New()
		started := 0
		s.Spawn("stopper", func(p *Proc) {
			s.Spawn("late", func(p *Proc) { started++ })
			s.Stop()
			p.Yield()
			t.Error("stopper resumed after Stop")
		})
		s.Spawn("never", func(p *Proc) { started++ })
		endsCleanly(t, s, start, func(err error) bool { return err == nil })
		if started != 0 {
			t.Errorf("%d processes started after Stop", started)
		}
	})
}

// TestHandoverDeferParksWhileDraining: deferred code that parks while
// its process is being unwound does not park — it keeps unwinding — and
// the drain goes on to the processes after it.
func TestHandoverDeferParksWhileDraining(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	var unwound []bool
	m := NewMailbox[int](s, "never")
	returned := false
	s.Spawn("cleaner", func(p *Proc) {
		defer func() { unwound = append(unwound, s.draining) }()
		defer func() {
			m.Get(p) // the run has ended: nothing would resume this
			returned = true
		}()
		m.Get(p)
	})
	parkForever(s, 2, &unwound)
	endsCleanly(t, s, start, func(err error) bool {
		var dl *DeadlockError
		return errors.As(err, &dl) && len(dl.Blocked) == 3
	})
	allDrained(t, unwound, 3)
	if returned {
		t.Error("a park in deferred code returned while draining")
	}
}

// TestHandoverProcRecoversOwnPanic: a process body's own recover still
// catches a panic raised under it after it has parked and been resumed,
// and the process and the run carry on.
func TestHandoverProcRecoversOwnPanic(t *testing.T) {
	start := runtime.NumGoroutine()
	s := New()
	var caught any
	finished := false
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(1)
		}
	})
	s.Spawn("recoverer", func(p *Proc) {
		func() {
			defer func() { caught = recover() }()
			p.Advance(2)
			panic("inner")
		}()
		p.Advance(3)
		finished = true
	})
	endsCleanly(t, s, start, func(err error) bool { return err == nil })
	if caught != "inner" || !finished {
		t.Errorf("recovered %v, finished %v; want inner, true", caught, finished)
	}
	if s.Now() != 10 {
		t.Errorf("Now = %v, want 10", s.Now())
	}
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

// BenchmarkSimHandover measures the kernel's two ways back to a process:
// "yield" is two processes alternating Yield, so every Yield hands over
// to the other (one op is a round, each process yielding once), and
// "advance" is one process advancing alone, whose next event is always
// its own resume, so it never switches. Both allocate nothing per op.
func BenchmarkSimHandover(b *testing.B) {
	b.Run("yield", func(b *testing.B) {
		s := New()
		for i := 0; i < 2; i++ {
			s.Spawn("yielder", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					p.Yield()
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("advance", func(b *testing.B) {
		s := New()
		s.Spawn("advancer", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(1)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
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
