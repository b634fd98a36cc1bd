// Package diffenc implements Munin's twin/diff encoding (§3.3).
//
// When a thread first writes to an object that allows multiple writers, the
// runtime makes a copy (the "twin"). At flush time the object is compared
// word-by-word with its twin and the result is run-length encoded: each run
// records a count of identical words, the number of differing words that
// follow, and the data of those differing words. The encoded diff is sent
// to nodes holding copies, where it is decoded and the changed words merged
// into the original object — so concurrent writers of disjoint words of the
// same page (false sharing) never ping-pong the page.
package diffenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// WordSize is the granularity of comparison (32-bit words, as on the SUN-3).
const WordSize = 4

// Stats describes the work a diff operation performed; the cost model
// charges virtual time proportional to these (Table 2's Encode/Decode rows).
type Stats struct {
	// Words is the number of words scanned (object size / WordSize).
	Words int
	// Changed is the number of differing words carried by the diff.
	Changed int
	// Runs is the number of (identical-count, diff-count, data) runs.
	Runs int
}

// ErrCorrupt is returned when a diff does not parse or exceeds the object.
var ErrCorrupt = errors.New("diffenc: corrupt diff")

// blockWords is the stride Encode skips identical stretches by: most of a
// page is unchanged at most flushes, and one bytes.Equal over a block costs
// about what comparing one word by hand does.
const blockWords = 64 / WordSize

// Encode compares cur against twin and returns the run-length-encoded
// changes, along with encoding statistics. twin and cur must have equal
// word-multiple lengths. A nil return means the object is unchanged.
// Identical stretches are skipped a block at a time before the boundary is
// settled word by word; the output and the statistics are those of a pure
// word-by-word comparison.
//
// Wire layout per run: skip uint32 (identical words), n uint32 (differing
// words), then n little-endian 32-bit words of data.
func Encode(twin, cur []byte) ([]byte, Stats) { return AppendEncode(nil, twin, cur) }

// MaxSize is the largest encoding of an object of size bytes: a run is
// an 8-byte header and its words, and every run but the first follows an
// identical word, so n words encode in at most 6n+6 bytes — alternating
// words, about 1.5 times the object. A buffer of this capacity never
// regrows under AppendEncode.
func MaxSize(size int) int { return size + size/2 + 8 }

// AppendEncode is Encode appending to dst: it returns dst extended by
// the encoded changes, or nil when the object is unchanged (dst's bytes
// are left as they were either way).
func AppendEncode(dst, twin, cur []byte) ([]byte, Stats) {
	if len(twin) != len(cur) {
		panic(fmt.Sprintf("diffenc: twin %d bytes vs current %d bytes", len(twin), len(cur)))
	}
	if len(cur)%WordSize != 0 {
		panic(fmt.Sprintf("diffenc: object size %d not word multiple", len(cur)))
	}
	words := len(cur) / WordSize
	st := Stats{Words: words}
	out := dst
	i := 0
	for i < words {
		runStart := i
		for i+blockWords <= words &&
			bytes.Equal(twin[i*WordSize:(i+blockWords)*WordSize], cur[i*WordSize:(i+blockWords)*WordSize]) {
			i += blockWords
		}
		for i < words && wordEq(twin, cur, i) {
			i++
		}
		skip := i - runStart
		if i == words {
			break // trailing identical words need no run
		}
		diffStart := i
		for i < words && !wordEq(twin, cur, i) {
			i++
		}
		n := i - diffStart
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(skip))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
		out = append(out, hdr[:]...)
		out = append(out, cur[diffStart*WordSize:(diffStart+n)*WordSize]...)
		st.Changed += n
		st.Runs++
	}
	if st.Runs == 0 {
		return nil, st
	}
	return out, st
}

// Decode merges a diff produced by Encode into dst, returning statistics.
// dst plays the role of the remote copy: only words the diff carries are
// overwritten, so updates from concurrent writers of disjoint words compose.
func Decode(dst []byte, diff []byte) (Stats, error) {
	return walk(dst, len(dst), diff)
}

// Check validates diff against an object of size bytes and returns the
// statistics Decode would, without an object to write to: what a receiver
// needs to reject a corrupt diff, and to charge for a good one, before it
// touches its copy.
func Check(size int, diff []byte) (Stats, error) {
	return walk(nil, size, diff)
}

// walk parses diff run by run against an object of size bytes, copying each
// run's words into dst unless dst is nil.
func walk(dst []byte, size int, diff []byte) (Stats, error) {
	if size%WordSize != 0 {
		panic(fmt.Sprintf("diffenc: object size %d not word multiple", size))
	}
	words := size / WordSize
	st := Stats{Words: words}
	pos := 0
	for off := 0; off < len(diff); {
		if len(diff)-off < 8 {
			return st, fmt.Errorf("%w: truncated run header", ErrCorrupt)
		}
		skip := int(binary.LittleEndian.Uint32(diff[off:]))
		n := int(binary.LittleEndian.Uint32(diff[off+4:]))
		off += 8
		if n == 0 {
			return st, fmt.Errorf("%w: empty run", ErrCorrupt)
		}
		pos += skip
		if pos+n > words {
			return st, fmt.Errorf("%w: run beyond object (%d+%d > %d words)", ErrCorrupt, pos, n, words)
		}
		if len(diff)-off < n*WordSize {
			return st, fmt.Errorf("%w: truncated run data", ErrCorrupt)
		}
		if dst != nil {
			copy(dst[pos*WordSize:], diff[off:off+n*WordSize])
		}
		off += n * WordSize
		pos += n
		st.Changed += n
		st.Runs++
	}
	return st, nil
}

// Empty reports whether an encoded diff carries no changes.
func Empty(diff []byte) bool { return len(diff) == 0 }

func wordEq(a, b []byte, w int) bool {
	o := w * WordSize
	return binary.LittleEndian.Uint32(a[o:]) == binary.LittleEndian.Uint32(b[o:])
}
