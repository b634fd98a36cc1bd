package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{Microsecond, "1.000µs"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000s"},
		{-Millisecond, "-1.000ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := (2500 * Microsecond).Milliseconds(); got != 2.5 {
		t.Errorf("Milliseconds() = %v, want 2.5", got)
	}
	if got := (3 * Microsecond).Microseconds(); got != 3 {
		t.Errorf("Microseconds() = %v, want 3", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcAdvanceChargesClock(t *testing.T) {
	s := New()
	var end Time
	s.Spawn("worker", func(p *Proc) {
		p.Advance(10 * Millisecond)
		p.Advance(5 * Millisecond)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 15*Millisecond {
		t.Errorf("end = %v, want 15ms", end)
	}
}

func TestProcTimeAccounting(t *testing.T) {
	s := New()
	var p *Proc
	p = s.Spawn("worker", func(p *Proc) {
		p.Advance(10) // user by default
		prev := p.SetKind(KindSystem)
		if prev != KindUser {
			t.Errorf("previous kind = %v, want KindUser", prev)
		}
		p.Advance(7)
		p.SetKind(prev)
		p.Advance(3)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if p.UserTime() != 13 {
		t.Errorf("UserTime = %v, want 13", p.UserTime())
	}
	if p.SystemTime() != 7 {
		t.Errorf("SystemTime = %v, want 7", p.SystemTime())
	}
}

func TestAdvanceZeroDoesNotYield(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Advance(0)
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a1,a2,b" {
		t.Errorf("order = %s, want a1,a2,b", got)
	}
}

func TestYieldInterleaves(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a1,b1,a2" {
		t.Errorf("order = %s, want a1,b1,a2", got)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	s := New()
	s.Spawn("w", func(p *Proc) { p.Advance(-1) })
	if err := s.Run(); err == nil {
		t.Fatal("expected error from negative advance")
	}
}

func TestProcPanicBecomesError(t *testing.T) {
	s := New()
	sentinel := errors.New("boom")
	s.Spawn("w", func(p *Proc) { panic(sentinel) })
	err := s.Run()
	if !errors.Is(err, sentinel) {
		t.Errorf("Run() = %v, want %v", err, sentinel)
	}
}

func TestProcPanicNonError(t *testing.T) {
	s := New()
	s.Spawn("w", func(p *Proc) { panic("bad") })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Errorf("Run() = %v, want panic message", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	m := NewMailbox[int](s, "never")
	s.Spawn("stuck", func(p *Proc) { m.Get(p) })
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || !strings.Contains(dl.Blocked[0], "stuck") {
		t.Errorf("Blocked = %v", dl.Blocked)
	}
}

func TestStop(t *testing.T) {
	s := New()
	n := 0
	s.Spawn("w", func(p *Proc) {
		for {
			n++
			if n == 3 {
				s.Stop()
			}
			p.Advance(1)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("n = %d, want 3", n)
	}
}

func TestMailboxFIFO(t *testing.T) {
	s := New()
	m := NewMailbox[int](s, "box")
	var got []int
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			m.Put(i)
			p.Advance(1)
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, m.Get(p))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v, want [0 1 2 3 4]", got)
		}
	}
}

func TestMailboxLen(t *testing.T) {
	s := New()
	m := NewMailbox[string](s, "box")
	m.Put("x")
	m.Put("y")
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}

func TestMailboxMultipleWaiters(t *testing.T) {
	s := New()
	m := NewMailbox[int](s, "box")
	var got []string
	for _, name := range []string{"c1", "c2"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			v := m.Get(p)
			got = append(got, fmt.Sprintf("%s=%d", name, v))
		})
	}
	s.Spawn("producer", func(p *Proc) {
		p.Advance(10)
		m.Put(1)
		m.Put(2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got = %v, want two receipts", got)
	}
	// Waiters are woken FIFO.
	if got[0] != "c1=1" || got[1] != "c2=2" {
		t.Errorf("got = %v, want [c1=1 c2=2]", got)
	}
}

func TestFutureWaitBeforeComplete(t *testing.T) {
	s := New()
	f := s.NewFuture("reply")
	var got any
	s.Spawn("waiter", func(p *Proc) { got = f.Wait(p) })
	s.Spawn("completer", func(p *Proc) {
		p.Advance(5)
		f.Complete(42)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("got = %v, want 42", got)
	}
	if !f.Done() {
		t.Error("future not done")
	}
}

func TestFutureWaitAfterComplete(t *testing.T) {
	s := New()
	f := s.NewFuture("reply")
	f.Complete("v")
	var got any
	s.Spawn("waiter", func(p *Proc) { got = f.Wait(p) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "v" {
		t.Errorf("got = %v, want v", got)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	s := New()
	f := s.NewFuture("reply")
	f.Complete(1)
	defer func() {
		if recover() == nil {
			t.Error("double complete did not panic")
		}
	}()
	f.Complete(2)
}

func TestCondBroadcastWakesAll(t *testing.T) {
	s := New()
	c := s.NewCond("cv")
	ready := false
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for !ready {
				c.Wait(p)
			}
			woken++
		})
	}
	s.Spawn("signaler", func(p *Proc) {
		p.Advance(1)
		ready = true
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Errorf("woken = %d, want 3", woken)
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	s := New()
	sem := s.NewSemaphore("mutex", 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			sem.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Advance(10) // hold across a block point
			inside--
			sem.Release()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Errorf("maxInside = %d, want 1", maxInside)
	}
	if s.Now() != 40 {
		t.Errorf("Now = %v, want 40 (serialized)", s.Now())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	s := New()
	sem := s.NewSemaphore("sem", 1)
	if !sem.TryAcquire() {
		t.Error("first TryAcquire failed")
	}
	if sem.TryAcquire() {
		t.Error("second TryAcquire succeeded")
	}
	sem.Release()
	if !sem.TryAcquire() {
		t.Error("TryAcquire after Release failed")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		s := New()
		var log []string
		m := NewMailbox[int](s, "m")
		for i := 0; i < 3; i++ {
			i := i
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Advance(Time(i) * 3)
				m.Put(i)
				p.Advance(5)
				log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
			})
		}
		s.Spawn("sink", func(p *Proc) {
			for i := 0; i < 3; i++ {
				v := m.Get(p)
				log = append(log, fmt.Sprintf("got%d@%d", v, p.Now()))
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	s := New()
	done := false
	s.Spawn("parent", func(p *Proc) {
		p.Advance(5)
		s.Spawn("child", func(c *Proc) {
			c.Advance(5)
			done = true
		})
		p.Advance(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("child did not run")
	}
	if s.Now() != 10 {
		t.Errorf("Now = %v, want 10", s.Now())
	}
}
