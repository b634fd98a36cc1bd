package nodeset

import (
	"math/rand"
	"sort"
	"testing"
)

// TestBasics pins the small-set semantics the directory relies on.
func TestBasics(t *testing.T) {
	var s Set
	if !s.Empty() || s.Count() != 0 || s.Max() != -1 {
		t.Fatalf("zero set not empty: %v", s)
	}
	s = s.Add(3).Add(7).Add(3)
	if !s.Has(3) || !s.Has(7) || s.Has(4) {
		t.Fatalf("membership wrong: %v", s)
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	s = s.Remove(3)
	if s.Has(3) || !s.Has(7) || s.Count() != 1 {
		t.Fatalf("Remove wrong: %v", s)
	}
	if got := s.Add(1).Nodes(16); len(got) != 2 || got[0] != 1 || got[1] != 7 {
		t.Fatalf("Nodes = %v, want [1 7]", got)
	}
	if s.String() != "{7}" {
		t.Fatalf("String = %q", s.String())
	}
}

// TestValueSemantics holds the copy-on-write contract: a Set handed out
// earlier never observes later mutations, inline or overflow.
func TestValueSemantics(t *testing.T) {
	a := FromNodes(1, 70, 200)
	b := a.Add(130)
	c := b.Remove(70)
	if !a.Equal(FromNodes(1, 70, 200)) {
		t.Fatalf("a mutated by Add: %v", a)
	}
	if !b.Equal(FromNodes(1, 70, 130, 200)) {
		t.Fatalf("b wrong: %v", b)
	}
	if !c.Equal(FromNodes(1, 130, 200)) {
		t.Fatalf("c wrong: %v", c)
	}
	u := a.Union(FromNodes(2, 65))
	if !a.Equal(FromNodes(1, 70, 200)) {
		t.Fatalf("a mutated by Union: %v", a)
	}
	if !u.Equal(FromNodes(1, 2, 65, 70, 200)) {
		t.Fatalf("union wrong: %v", u)
	}
}

// TestPromotionRoundTrip is the inline↔overflow property test: a set
// pushed over the 64-node line and back down has exactly the shape and
// members an inline-only history would give, so Equal/Empty/Inline see
// no ghost of the excursion.
func TestPromotionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		inline := make([]int, 0, 8)
		seen := map[int]bool{}
		var s Set
		for i := 0; i < 8; i++ {
			n := rng.Intn(64)
			s = s.Add(n)
			if !seen[n] {
				seen[n] = true
				inline = append(inline, n)
			}
		}
		// Promote: members past 64...
		high := []int{64 + rng.Intn(64), 128 + rng.Intn(200)}
		for _, n := range high {
			s = s.Add(n)
		}
		if _, ok := s.Inline(); ok {
			t.Fatalf("promoted set claims inline: %v", s)
		}
		// ...and back: removing them must restore the inline shape.
		for _, n := range high {
			s = s.Remove(n)
		}
		want := FromNodes(inline...)
		if !s.Equal(want) {
			t.Fatalf("round trip lost members: %v != %v", s, want)
		}
		if len(s.hi) != 0 {
			t.Fatalf("round trip left overflow words: %v", s.hi)
		}
		if _, ok := s.Inline(); !ok && s.lo != ^uint64(0) {
			t.Fatalf("demoted set not inline: %v", s)
		}
	}
}

// TestNodesOrdering holds Nodes(limit): ascending order, bounded by
// limit, consistent with ForEach, at every size regime.
func TestNodesOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		var s Set
		members := map[int]bool{}
		for i := 0; i < 40; i++ {
			m := rng.Intn(n)
			s = s.Add(m)
			members[m] = true
		}
		limit := 1 + rng.Intn(n)
		got := s.AppendNodes([]int{-1}, limit)
		if got[0] != -1 {
			t.Fatalf("AppendNodes overwrote dst: %v", got)
		}
		got = got[1:]
		if !sort.IntsAreSorted(got) {
			t.Fatalf("AppendNodes not ascending: %v", got)
		}
		var want []int
		for m := range members {
			if m < limit {
				want = append(want, m)
			}
		}
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("Nodes(%d) = %v, want %v", limit, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Nodes(%d) = %v, want %v", limit, got, want)
			}
		}
		var walked []int
		s.ForEach(func(m int) { walked = append(walked, m) })
		if len(walked) != s.Count() || !sort.IntsAreSorted(walked) {
			t.Fatalf("ForEach order/count wrong: %v (count %d)", walked, s.Count())
		}
	}
}

// TestAllUpTo pins the explicit every-node constructor at the sizes the
// old ^0 sentinel silently got wrong.
func TestAllUpTo(t *testing.T) {
	for _, n := range []int{0, 1, 16, 63, 64, 65, 128, 200, 256} {
		s := AllUpTo(n)
		if s.Count() != n {
			t.Fatalf("AllUpTo(%d).Count = %d", n, s.Count())
		}
		if n > 0 && (!s.Has(0) || !s.Has(n-1) || s.Has(n)) {
			t.Fatalf("AllUpTo(%d) membership wrong", n)
		}
		if s.Max() != n-1 {
			t.Fatalf("AllUpTo(%d).Max = %d", n, s.Max())
		}
	}
}

// TestInlineEscape: the full inline word is the wire escape marker, so
// Inline must refuse it; every other ≤64 set is inline.
func TestInlineEscape(t *testing.T) {
	if _, ok := AllUpTo(64).Inline(); ok {
		t.Fatal("AllUpTo(64) must not claim the inline form (escape collision)")
	}
	if lo, ok := AllUpTo(63).Inline(); !ok || lo != 1<<63-1 {
		t.Fatalf("AllUpTo(63).Inline = %#x, %v", lo, ok)
	}
	if _, ok := FromNodes(64).Inline(); ok {
		t.Fatal("overflow set must not claim inline")
	}
}

// BenchmarkInlineOps holds the ≤64-node fast path at 0 allocs/op.
func BenchmarkInlineOps(b *testing.B) {
	b.ReportAllocs()
	s := AllUpTo(16).Add(63)
	for i := 0; i < b.N; i++ {
		s = s.Add(i % 60).Remove((i + 1) % 60)
		if s.Empty() || !s.Has(63) {
			b.Fatal("lost members")
		}
		_ = s.Count()
	}
}
