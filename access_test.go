package munin

// Tests for the access path under the typed views: a row moves as one byte
// copy per page, the page image it lands in is little-endian whatever the
// host, and an access to valid pages allocates nothing.

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"munin/internal/vm"
)

// refEncode is the reference page image of vals: each element's bits laid
// out with encoding/binary, independent of the views' byte-view path.
func refEncode[T Elem](order binary.AppendByteOrder, vals []T) []byte {
	out := make([]byte, 0, len(vals)*elemSize[T]())
	for _, v := range vals {
		switch x := any(v).(type) {
		case int32:
			out = order.AppendUint32(out, uint32(x))
		case uint32:
			out = order.AppendUint32(out, x)
		case float32:
			out = order.AppendUint32(out, math.Float32bits(x))
		case float64:
			out = order.AppendUint64(out, math.Float64bits(x))
		}
	}
	return out
}

// randomElems draws elements from random bit patterns (NaNs included:
// everything below compares encodings, not values).
func randomElems[T Elem](rng *rand.Rand, n int) []T {
	out := make([]T, n)
	for i := range out {
		switch p := any(&out[i]).(type) {
		case *int32:
			*p = int32(rng.Uint32())
		case *uint32:
			*p = rng.Uint32()
		case *float32:
			*p = math.Float32frombits(rng.Uint32())
		case *float64:
			*p = math.Float64frombits(rng.Uint64())
		}
	}
	return out
}

// accessProperty writes and reads random page-crossing ranges of a
// four-page array against a shadow copy, then pins the bytes the run left
// in shared memory to the reference little-endian encoding.
func accessProperty[T Elem](t *testing.T) {
	t.Helper()
	le := binary.LittleEndian
	rng := rand.New(rand.NewSource(int64(elemSize[T]())))
	n := 4*vm.DefaultPageSize/elemSize[T]() - 3 // last object is short
	shadow := randomElems[T](rng, n)

	p := NewProgram(1)
	a := Declare[T](p, "a", n, WriteShared)
	a.Init(shadow...)
	res, err := p.Run(context.Background(), func(root *Thread) {
		for iter := 0; iter < 300; iter++ {
			off := rng.Intn(n)
			vals := randomElems[T](rng, rng.Intn(min(n-off, 5*n/8)+1))
			a.Write(root, off, vals)
			copy(shadow[off:], vals)

			off = rng.Intn(n)
			got := make([]T, rng.Intn(n-off+1))
			a.Read(root, off, got)
			if want := shadow[off : off+len(got)]; !bytes.Equal(refEncode(le, got), refEncode(le, want)) {
				t.Fatalf("iter %d: Read(%d, %d elements) disagrees with what was written", iter, off, len(got))
			}

			i := rng.Intn(n)
			one := randomElems[T](rng, 1)
			a.Set(root, i, one[0])
			shadow[i] = one[0]
			i = rng.Intn(n)
			if got := []T{a.Get(root, i)}; !bytes.Equal(refEncode(le, got), refEncode(le, shadow[i:i+1])) {
				t.Fatalf("iter %d: Get(%d) = %v, want %v", iter, i, got[0], shadow[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	want := refEncode(le, shadow)
	var image []byte
	final := res.FinalImage()
	for _, obj := range a.Objects() {
		image = append(image, final[obj]...)
	}
	if !bytes.Equal(image, want) {
		t.Error("FinalImage is not the little-endian encoding of the elements written")
	}
	snap, err := a.Snapshot(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refEncode(le, snap), want) {
		t.Error("Snapshot disagrees with the elements written")
	}
}

func TestAccessPathPageImage(t *testing.T) {
	t.Run("int32", accessProperty[int32])
	t.Run("uint32", accessProperty[uint32])
	t.Run("float32", accessProperty[float32])
	t.Run("float64", accessProperty[float64])
}

// TestBigEndianStore drives the big-endian build's half of the path —
// storeSwapped out, swapElems back in — on whatever host runs the tests:
// the page bytes are then the big-endian encoding on a little-endian host
// and the reverse, and swapping a load of them restores the elements.
func TestBigEndianStore(t *testing.T) {
	var swapped binary.AppendByteOrder = binary.BigEndian
	if bigEndian {
		swapped = binary.LittleEndian
	}
	rng := rand.New(rand.NewSource(1))
	const n = 3000 // 24 KB: chunks and pages both split mid-run
	vals := randomElems[float64](rng, n)
	keep := append([]float64(nil), vals...)

	p := NewProgram(1)
	a := Declare[float64](p, "a", n+1, WriteShared)
	_, err := p.Run(context.Background(), func(root *Thread) {
		storeSwapped(root, a.Addr(1), asBytes(vals), 8)
		raw := make([]byte, n*8)
		root.Read(a.Addr(1), raw)
		if !bytes.Equal(raw, refEncode(swapped, vals)) {
			t.Error("storeSwapped did not reverse each element's bytes")
		}
		swapElems(raw, 8)
		if !bytes.Equal(raw, asBytes(vals)) {
			t.Error("swapElems is not storeSwapped's inverse")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asBytes(vals), asBytes(keep)) {
		t.Error("storeSwapped modified the caller's values")
	}

	four := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	swapElems(four, 4)
	if want := []byte{4, 3, 2, 1, 8, 7, 6, 5}; !bytes.Equal(four, want) {
		t.Errorf("swapElems(4) = %v, want %v", four, want)
	}
}

// TestAccessPathAllocatesNothing: on valid pages every accessor is a
// bounds check, a page-table lookup and a copy.
func TestAccessPathAllocatesNothing(t *testing.T) {
	const rows, cols = 4, 3000 // 12 KB rows: each spans two or three pages
	p := NewProgram(1)
	m32 := DeclareMatrix[float32](p, "m32", rows, cols, WriteShared)
	m64 := DeclareMatrix[float64](p, "m64", rows, cols, WriteShared)
	_, err := p.Run(context.Background(), func(root *Thread) {
		row32, row64 := make([]float32, cols), make([]float64, cols)
		for i := 0; i < rows; i++ { // fault every page in for write
			m32.WriteRow(root, i, row32)
			m64.WriteRow(root, i, row64)
		}
		var sink32 float32
		var sink64 float64
		for name, f := range map[string]func(){
			"ReadRow":    func() { m32.ReadRow(root, 1, row32) },
			"ScanRow":    func() { m64.ScanRow(root, 1, func(_ int, seg []float64) { sink64 += seg[0] }) },
			"WriteRow":   func() { m32.WriteRow(root, 2, row32) },
			"Read":       func() { m64.arr.Read(root, 1234, row64) },
			"Write":      func() { m64.arr.Write(root, 4321, row64) },
			"Get 4-byte": func() { sink32 += m32.Get(root, 3, 7) },
			"Set 4-byte": func() { m32.Set(root, 3, 7, sink32) },
			"Get 8-byte": func() { sink64 += m64.Get(root, 3, 7) },
			"Set 8-byte": func() { m64.Set(root, 3, 7, sink64) },
		} {
			if n := testing.AllocsPerRun(50, f); n != 0 {
				t.Errorf("%s: %v allocs per call on valid pages, want 0", name, n)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRowBufferTooShort: a row access through a buffer shorter than the
// row names the variable, like every other bounds check in views.go.
func TestRowBufferTooShort(t *testing.T) {
	p := NewProgram(1)
	m := DeclareMatrix[int32](p, "grid", 4, 8, WriteShared)
	_, err := p.Run(context.Background(), func(root *Thread) {
		expectPanic(t, "grid row buffer holds 7 elements, need 8", func() { m.ReadRow(root, 0, make([]int32, 7)) })
		expectPanic(t, "grid row buffer holds 0 elements, need 8", func() { m.WriteRow(root, 3, nil) })
	})
	if err != nil {
		t.Fatal(err)
	}
}
