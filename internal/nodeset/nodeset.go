// Package nodeset implements the growable node-set the directory's
// copysets are built on. The paper notes a single-word bitmap suffices
// for a prototype-sized system (16 nodes); lifting the node-count
// ceiling past 64 needs a representation that stays exactly as cheap in
// the prototype regime while growing beyond it.
//
// A Set is a bitmap split into an inline first word (nodes 0–63 — the
// fast path, no heap storage at all) and an overflow word slice for
// nodes 64 and up. Sets have VALUE semantics: every mutating method
// returns a new Set and never writes through a previously returned
// overflow slice (copy-on-write), so Sets can be stored in directory
// entries, passed in wire messages and shared across dispatcher
// goroutines without aliasing hazards. For sets confined to nodes 0–63
// no method allocates.
package nodeset

import (
	"math/bits"
	"strconv"
	"strings"
)

// wordBits is the node capacity of one bitmap word.
const wordBits = 64

// Set is a set of node ids. The zero value is the empty set, ready to
// use. Sets are immutable values: Add/Remove/Union return new Sets.
// Do not compare Sets with ==; use Equal.
type Set struct {
	// lo holds nodes 0–63 inline.
	lo uint64
	// hi holds nodes 64+ in overflow words: hi[i] covers nodes
	// [64*(i+1), 64*(i+2)). Trailing zero words are always trimmed, so
	// two Sets with equal members have identical word shapes. Never
	// mutated in place once a Set has been returned (copy-on-write).
	hi []uint64
}

// FromNodes builds the set {nodes...}.
func FromNodes(nodes ...int) Set {
	var s Set
	for _, n := range nodes {
		s = s.Add(n)
	}
	return s
}

// FromWord builds the set whose members are the bits of lo — the wire
// decoder's inline fast path.
func FromWord(lo uint64) Set { return Set{lo: lo} }

// AllUpTo returns the set {0, 1, ..., n-1}: every node of an n-node
// machine. Unlike the retired ^uint64(0) "all nodes" sentinel, the
// membership is explicit, so machines past 64 nodes cannot silently
// truncate it.
func AllUpTo(n int) Set {
	if n <= 0 {
		return Set{}
	}
	if n <= wordBits {
		if n == wordBits {
			return Set{lo: ^uint64(0)}
		}
		return Set{lo: 1<<uint(n) - 1}
	}
	s := Set{lo: ^uint64(0), hi: make([]uint64, (n+wordBits-1)/wordBits-1)}
	for i := range s.hi {
		s.hi[i] = ^uint64(0)
	}
	if rem := n % wordBits; rem != 0 {
		s.hi[len(s.hi)-1] = 1<<uint(rem) - 1
	}
	return s
}

// Has reports whether node n is in the set.
func (s Set) Has(n int) bool {
	if n < 0 {
		return false
	}
	if n < wordBits {
		return s.lo&(1<<uint(n)) != 0
	}
	w := n/wordBits - 1
	if w >= len(s.hi) {
		return false
	}
	return s.hi[w]&(1<<uint(n%wordBits)) != 0
}

// Add returns the set with node n added. Adding a node below 64 to a
// set confined below 64 allocates nothing.
func (s Set) Add(n int) Set {
	if n < 0 {
		return s
	}
	if n < wordBits {
		s.lo |= 1 << uint(n)
		return s
	}
	w := n/wordBits - 1
	hi := make([]uint64, max(w+1, len(s.hi)))
	copy(hi, s.hi)
	hi[w] |= 1 << uint(n%wordBits)
	return Set{lo: s.lo, hi: hi}
}

// Remove returns the set with node n removed. Removing from a set
// confined below 64 allocates nothing.
func (s Set) Remove(n int) Set {
	if n < 0 {
		return s
	}
	if n < wordBits {
		s.lo &^= 1 << uint(n)
		return s
	}
	w := n/wordBits - 1
	if w >= len(s.hi) || s.hi[w]&(1<<uint(n%wordBits)) == 0 {
		return s
	}
	hi := append([]uint64(nil), s.hi...)
	hi[w] &^= 1 << uint(n%wordBits)
	return Set{lo: s.lo, hi: trim(hi)}
}

// Union returns the set of members of either set.
func (s Set) Union(o Set) Set {
	if len(o.hi) == 0 {
		if len(s.hi) == 0 {
			return Set{lo: s.lo | o.lo}
		}
		return Set{lo: s.lo | o.lo, hi: s.hi}
	}
	if len(s.hi) == 0 {
		return Set{lo: s.lo | o.lo, hi: o.hi}
	}
	hi := make([]uint64, max(len(s.hi), len(o.hi)))
	copy(hi, s.hi)
	for i, w := range o.hi {
		hi[i] |= w
	}
	return Set{lo: s.lo | o.lo, hi: hi}
}

// Equal reports whether the two sets have the same members.
func (s Set) Equal(o Set) bool {
	if s.lo != o.lo || len(s.hi) != len(o.hi) {
		return false
	}
	for i, w := range s.hi {
		if o.hi[i] != w {
			return false
		}
	}
	return true
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	// hi is trimmed, so any overflow slice means a member is present.
	return s.lo == 0 && len(s.hi) == 0
}

// Count returns the number of members.
func (s Set) Count() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// Max returns the largest member, or -1 for the empty set.
func (s Set) Max() int {
	for i := len(s.hi) - 1; i >= 0; i-- {
		if s.hi[i] != 0 {
			return (i+2)*wordBits - 1 - bits.LeadingZeros64(s.hi[i])
		}
	}
	if s.lo == 0 {
		return -1
	}
	return wordBits - 1 - bits.LeadingZeros64(s.lo)
}

// Nodes lists the members below limit in ascending order (pass the
// system's node count).
func (s Set) Nodes(limit int) []int { return s.AppendNodes(nil, limit) }

// AppendNodes appends the members below limit to dst in ascending order
// and returns the extended slice: Nodes into a buffer the caller reuses.
func (s Set) AppendNodes(dst []int, limit int) []int {
	s.ForEach(func(n int) {
		if n < limit {
			dst = append(dst, n)
		}
	})
	return dst
}

// ForEach calls fn for every member in ascending order, without
// allocating.
func (s Set) ForEach(fn func(n int)) {
	for w := s.lo; w != 0; w &= w - 1 {
		fn(bits.TrailingZeros64(w))
	}
	for i, hw := range s.hi {
		base := (i + 1) * wordBits
		for w := hw; w != 0; w &= w - 1 {
			fn(base + bits.TrailingZeros64(w))
		}
	}
}

// Words returns the number of bitmap words the set spans (≥ 1).
func (s Set) Words() int { return 1 + len(s.hi) }

// Word returns bitmap word i: word 0 holds nodes 0–63, word i holds
// nodes [64i, 64i+64). Together with Words it lets the wire codec walk
// a set's members without the closure ForEach needs.
func (s Set) Word(i int) uint64 {
	if i == 0 {
		return s.lo
	}
	return s.hi[i-1]
}

// Inline returns the set's single bitmap word when it both fits the
// wire codec's inline form (members confined to nodes 0–63) and is
// distinguishable from the codec's escape marker (the all-ones word).
// The full {0..63} set therefore reports ok=false and travels in the
// extended form like any >64-node set.
func (s Set) Inline() (lo uint64, ok bool) {
	if len(s.hi) != 0 || s.lo == ^uint64(0) {
		return 0, false
	}
	return s.lo, true
}

// String formats the set as {a,b,c} for traces.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(n int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(n))
	})
	b.WriteByte('}')
	return b.String()
}

// trim drops trailing zero overflow words so equal memberships have
// equal shapes (and Empty stays a two-field check).
func trim(hi []uint64) []uint64 {
	for len(hi) > 0 && hi[len(hi)-1] == 0 {
		hi = hi[:len(hi)-1]
	}
	if len(hi) == 0 {
		return nil
	}
	return hi
}
