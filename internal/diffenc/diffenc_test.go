package diffenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func words(vals ...uint32) []byte {
	out := make([]byte, len(vals)*WordSize)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*WordSize:], v)
	}
	return out
}

func TestEncodeNoChanges(t *testing.T) {
	twin := words(1, 2, 3, 4)
	cur := words(1, 2, 3, 4)
	diff, st := Encode(twin, cur)
	if !Empty(diff) {
		t.Errorf("diff not empty: % x", diff)
	}
	if st.Changed != 0 || st.Runs != 0 || st.Words != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEncodeSingleWordChange(t *testing.T) {
	twin := words(1, 2, 3, 4)
	cur := words(1, 2, 99, 4)
	diff, st := Encode(twin, cur)
	if st.Runs != 1 || st.Changed != 1 {
		t.Errorf("stats = %+v, want 1 run, 1 changed", st)
	}
	// Run: skip=2, n=1, data=99.
	if len(diff) != 8+4 {
		t.Fatalf("diff length = %d, want 12", len(diff))
	}
	if binary.LittleEndian.Uint32(diff[0:]) != 2 || binary.LittleEndian.Uint32(diff[4:]) != 1 {
		t.Errorf("run header = % x", diff[:8])
	}

	got := words(1, 2, 3, 4)
	if _, err := Decode(got, diff); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Error("decode did not reproduce current")
	}
}

func TestEncodeAllWordsChanged(t *testing.T) {
	twin := words(0, 0, 0, 0)
	cur := words(5, 6, 7, 8)
	diff, st := Encode(twin, cur)
	if st.Runs != 1 || st.Changed != 4 {
		t.Errorf("stats = %+v, want 1 run, 4 changed", st)
	}
	if len(diff) != 8+16 {
		t.Errorf("diff length = %d, want 24", len(diff))
	}
}

func TestEncodeAlternateWordsWorstCase(t *testing.T) {
	// Every other word changed: maximum number of minimum-length runs
	// (the paper's worst case for the RLE scheme).
	const n = 64
	twin := make([]byte, n*WordSize)
	cur := make([]byte, n*WordSize)
	for i := 0; i < n; i += 2 {
		binary.LittleEndian.PutUint32(cur[i*WordSize:], uint32(i+1))
	}
	diff, st := Encode(twin, cur)
	if st.Runs != n/2 || st.Changed != n/2 {
		t.Errorf("stats = %+v, want %d runs and changed", st, n/2)
	}
	// Alternate-word diffs are larger than the all-words diff for the
	// same amount of data (run headers dominate).
	allTwin := make([]byte, n*WordSize)
	allCur := make([]byte, n*WordSize)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(allCur[i*WordSize:], uint32(i+1))
	}
	allDiff, _ := Encode(allTwin, allCur)
	perChangedAlt := float64(len(diff)) / float64(st.Changed)
	perChangedAll := float64(len(allDiff)) / float64(n)
	if perChangedAlt <= perChangedAll {
		t.Errorf("alternate words should cost more per changed word: %.1f vs %.1f", perChangedAlt, perChangedAll)
	}

	got := make([]byte, n*WordSize)
	if _, err := Decode(got, diff); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Error("decode mismatch")
	}
}

func TestTrailingIdenticalWordsNotEncoded(t *testing.T) {
	twin := words(0, 0, 0, 0, 0, 0)
	cur := words(9, 0, 0, 0, 0, 0)
	diff, st := Encode(twin, cur)
	if st.Runs != 1 {
		t.Errorf("runs = %d, want 1", st.Runs)
	}
	if len(diff) != 12 {
		t.Errorf("diff length = %d, want 12 (no trailing run)", len(diff))
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	Encode(make([]byte, 8), make([]byte, 12))
}

func TestNonWordMultiplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-word-multiple did not panic")
		}
	}()
	Encode(make([]byte, 6), make([]byte, 6))
}

func TestDecodeCorruptTruncatedHeader(t *testing.T) {
	dst := make([]byte, 16)
	if _, err := Decode(dst, []byte{1, 2, 3}); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestDecodeCorruptTruncatedData(t *testing.T) {
	dst := make([]byte, 16)
	var diff [8]byte
	binary.LittleEndian.PutUint32(diff[0:], 0)
	binary.LittleEndian.PutUint32(diff[4:], 2) // claims 2 words, provides none
	if _, err := Decode(dst, diff[:]); err == nil {
		t.Error("truncated data accepted")
	}
}

func TestDecodeCorruptBeyondObject(t *testing.T) {
	dst := make([]byte, 8) // 2 words
	var diff [12]byte
	binary.LittleEndian.PutUint32(diff[0:], 5) // skip beyond object
	binary.LittleEndian.PutUint32(diff[4:], 1)
	if _, err := Decode(dst, diff[:]); err == nil {
		t.Error("out-of-range run accepted")
	}
}

func TestDecodeCorruptEmptyRun(t *testing.T) {
	dst := make([]byte, 8)
	var diff [8]byte // skip=0, n=0
	if _, err := Decode(dst, diff[:]); err == nil {
		t.Error("empty run accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nWords uint8) bool {
		n := int(nWords)%256 + 1
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, n*WordSize)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		// Mutate a random subset of words.
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				binary.LittleEndian.PutUint32(cur[i*WordSize:], rng.Uint32())
			}
		}
		diff, est := Encode(twin, cur)
		got := append([]byte(nil), twin...)
		dst, err := Decode(got, diff)
		if err != nil {
			return false
		}
		// Decode sees exactly the runs/changed words Encode emitted.
		if dst.Runs != est.Runs || dst.Changed != est.Changed {
			return false
		}
		return bytes.Equal(got, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDisjointWritersMergeProperty(t *testing.T) {
	// Two writers modify disjoint words of the same object starting from
	// the same twin; applying both diffs to the base must produce the
	// union of their changes (the false-sharing resolution the DUQ
	// provides).
	f := func(seed int64) bool {
		const n = 128
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, n*WordSize)
		rng.Read(base)

		curA := append([]byte(nil), base...)
		curB := append([]byte(nil), base...)
		want := append([]byte(nil), base...)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0: // A writes even-assigned word
				v := rng.Uint32()
				binary.LittleEndian.PutUint32(curA[i*WordSize:], v)
				binary.LittleEndian.PutUint32(want[i*WordSize:], v)
			case 1: // B writes
				v := rng.Uint32()
				binary.LittleEndian.PutUint32(curB[i*WordSize:], v)
				binary.LittleEndian.PutUint32(want[i*WordSize:], v)
			}
		}
		diffA, _ := Encode(base, curA)
		diffB, _ := Encode(base, curB)
		got := append([]byte(nil), base...)
		if _, err := Decode(got, diffA); err != nil {
			return false
		}
		if _, err := Decode(got, diffB); err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeIntoDirtyCopyPreservesLocalChanges(t *testing.T) {
	// A node with a dirty copy receiving an update for different words
	// incorporates the changes immediately without losing its own (§3.3).
	base := words(0, 0, 0, 0)
	remote := words(7, 0, 0, 0) // remote changed word 0
	local := words(0, 0, 0, 9)  // we changed word 3
	diff, _ := Encode(base, remote)
	if _, err := Decode(local, diff); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, words(7, 0, 0, 9)) {
		t.Errorf("merge result = % x", local)
	}
}

// encodeWordByWord is the encoder as it was before Encode learned to skip
// identical blocks: every word compared on its own. Kept as the reference
// Encode must match byte for byte and count for count, since the cost
// model charges by the counts.
func encodeWordByWord(twin, cur []byte) ([]byte, Stats) {
	words := len(cur) / WordSize
	st := Stats{Words: words}
	differs := func(w int) bool {
		return !bytes.Equal(twin[w*WordSize:(w+1)*WordSize], cur[w*WordSize:(w+1)*WordSize])
	}
	var out []byte
	for i := 0; i < words; {
		runStart := i
		for i < words && !differs(i) {
			i++
		}
		if i == words {
			break
		}
		skip, diffStart := i-runStart, i
		for i < words && differs(i) {
			i++
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(skip))
		out = binary.LittleEndian.AppendUint32(out, uint32(i-diffStart))
		out = append(out, cur[diffStart*WordSize:i*WordSize]...)
		st.Changed += i - diffStart
		st.Runs++
	}
	return out, st
}

func TestEncodeMatchesWordByWordReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Sizes on, just under, just over and far from a multiple of the
	// block, and smaller than one block.
	sizes := []int{1, 3, blockWords - 1, blockWords, blockWords + 1, 5*blockWords - 2, 5 * blockWords, 2048, 2049, 2047}
	shapes := []struct {
		name   string
		mutate func(cur []byte, words int)
	}{
		{"unchanged", func([]byte, int) {}},
		{"sparse", func(cur []byte, words int) {
			for k := 0; k < 1+words/128; k++ {
				cur[rng.Intn(words)*WordSize+rng.Intn(WordSize)] ^= 0x5a
			}
		}},
		{"dense", func(cur []byte, words int) {
			for w := 0; w < words; w++ {
				if rng.Intn(8) != 0 {
					cur[w*WordSize+rng.Intn(WordSize)] ^= 0xff
				}
			}
		}},
		{"straddling block edges", func(cur []byte, words int) {
			// A run that ends on, starts on and crosses each block edge.
			for edge := blockWords; edge < words; edge += blockWords {
				for w := edge - rng.Intn(3); w < edge+rng.Intn(3) && w < words; w++ {
					cur[w*WordSize] ^= 1
				}
			}
		}},
		{"last word only", func(cur []byte, words int) { cur[words*WordSize-1] ^= 0x80 }},
		{"first word only", func(cur []byte, _ int) { cur[0] ^= 1 }},
		{"alternating", func(cur []byte, words int) {
			// The longest encoding: a run for every other word.
			for w := 0; w < words; w += 2 {
				cur[w*WordSize] ^= 1
			}
		}},
	}
	for _, words := range sizes {
		for _, shape := range shapes {
			for rep := 0; rep < 20; rep++ {
				twin := make([]byte, words*WordSize)
				rng.Read(twin)
				cur := append([]byte(nil), twin...)
				shape.mutate(cur, words)
				got, gotSt := Encode(twin, cur)
				want, wantSt := encodeWordByWord(twin, cur)
				if !bytes.Equal(got, want) || gotSt != wantSt {
					t.Fatalf("%d words, %s: Encode = %d bytes %+v, reference = %d bytes %+v",
						words, shape.name, len(got), gotSt, len(want), wantSt)
				}
				if len(got) > MaxSize(len(cur)) {
					t.Fatalf("%d words, %s: %d bytes encoded, MaxSize %d", words, shape.name, len(got), MaxSize(len(cur)))
				}
				// Appended to a buffer that already holds bytes: those
				// stay, the run appended is Encode's, and an unchanged
				// object appends nothing and reports it with nil.
				prefix := []byte("held")
				dst := make([]byte, len(prefix), len(prefix)+MaxSize(len(cur)))
				copy(dst, prefix)
				app, appSt := AppendEncode(dst, twin, cur)
				if !bytes.Equal(dst, prefix) || appSt != wantSt {
					t.Fatalf("%d words, %s: AppendEncode rewrote dst to %q (stats %+v)", words, shape.name, dst, appSt)
				}
				if want == nil {
					if app != nil {
						t.Fatalf("%d words, %s: AppendEncode of an unchanged object = %d bytes, want nil", words, shape.name, len(app))
					}
				} else if !bytes.Equal(app[:len(prefix)], prefix) || !bytes.Equal(app[len(prefix):], want) || &app[0] != &dst[0] {
					t.Fatalf("%d words, %s: AppendEncode = %d bytes, want %q then Encode's %d in place", words, shape.name, len(app), prefix, len(want))
				}
			}
		}
	}
}

func TestCheckMatchesDecode(t *testing.T) {
	run := func(skip, n uint32, data ...uint32) []byte {
		out := binary.LittleEndian.AppendUint32(nil, skip)
		out = binary.LittleEndian.AppendUint32(out, n)
		return append(out, words(data...)...)
	}
	twin := words(1, 2, 3, 4, 5, 6, 7, 8)
	good, _ := Encode(twin, words(1, 9, 9, 4, 5, 6, 7, 0))
	cases := []struct {
		name    string
		diff    []byte
		corrupt bool
	}{
		{"good", good, false},
		{"empty", nil, false},
		{"truncated header", good[:len(good)-13], true},
		{"empty run", append(append([]byte(nil), good...), run(0, 0)...), true},
		{"run beyond object", run(7, 2, 1, 2), true},
		{"truncated data", run(0, 3, 1, 2), true},
	}
	for _, c := range cases {
		dst := append([]byte(nil), twin...)
		wantSt, wantErr := Decode(dst, c.diff)
		st, err := Check(len(twin), c.diff)
		if (wantErr != nil) != c.corrupt {
			t.Errorf("%s: Decode error = %v, corrupt = %v", c.name, wantErr, c.corrupt)
		}
		if st != wantSt {
			t.Errorf("%s: Check stats %+v, Decode stats %+v", c.name, st, wantSt)
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: Check error %v, Decode error %v", c.name, err, wantErr)
		}
		if c.corrupt && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Check error %v is not ErrCorrupt", c.name, err)
		}
	}
}

// BenchmarkEncodeSparse measures Encode on the page a lock-heavy critical
// section leaves behind: 16 changed words in 8 KB.
func BenchmarkEncodeSparse(b *testing.B) {
	twin := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(twin)
	cur := append([]byte(nil), twin...)
	for w := 0; w < 16; w++ {
		cur[(100+w)*WordSize] ^= 1
	}
	b.SetBytes(int64(len(cur)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if diff, _ := Encode(twin, cur); len(diff) != 8+16*WordSize {
			b.Fatalf("diff is %d bytes", len(diff))
		}
	}
}
