package munin

// Typed views over shared memory, implemented once as generics: Array[T]
// (one-dimensional), Matrix[T] (row-major two-dimensional) and Var[T] (a
// scalar). T ranges over the 4- and 8-byte numeric element types.
//
// An access is a byte copy, not a codec: the caller's []T is viewed as
// bytes and handed to the node's address space, which moves it one page
// at a time. Page images are little-endian on every host (diffs, wire
// payloads, FinalImage and snapshots are made of page bytes), so on the
// little-endian build that view is the page image itself; a big-endian
// build (endian_big.go) swaps each element's bytes on the way through.
// Matrix.ScanRow skips even that copy: it lends a kernel the page bytes
// themselves, viewed as []T, for the length of a callback.

import (
	"fmt"
	"reflect"
	"unsafe"

	"munin/internal/vm"
)

// Elem is the set of element types shared variables can hold: any type
// whose underlying type is int32, uint32, float32 or float64.
type Elem interface {
	~int32 | ~uint32 | ~float32 | ~float64
}

// elemSize returns T's size in bytes (4 or 8).
func elemSize[T Elem]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// asBytes views s's storage as bytes, in the host's byte order. The bit
// pattern of every Elem member is well defined (two's complement, IEEE
// 754), so only the order differs between hosts.
func asBytes[T Elem](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*elemSize[T]())
}

// swapElems reverses the bytes of each size-byte element of b in place.
func swapElems(b []byte, size int) {
	for ; len(b) >= size; b = b[size:] {
		for i, j := 0, size-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
	}
}

// reorder converts b, the bytes of a []T, between the host's byte order
// and the page image's, in place; the conversion is its own inverse. On a
// little-endian build it is nothing.
func reorder[T Elem](b []byte) {
	if bigEndian {
		swapElems(b, elemSize[T]())
	}
}

// load copies the page image at addr into buf, faulting pages as needed.
func load[T Elem](t *Thread, addr vm.Addr, buf []T) {
	b := asBytes(buf)
	t.Read(addr, b)
	reorder[T](b)
}

// store copies vals into the page image at addr, faulting pages for
// write. vals is never modified (other threads may be reading it), so a
// big-endian host swaps through a stack buffer.
func store[T Elem](t *Thread, addr vm.Addr, vals []T) {
	if bigEndian {
		storeSwapped(t, addr, asBytes(vals), elemSize[T]())
		return
	}
	t.Write(addr, asBytes(vals))
}

// storeSwapped is store on a big-endian host.
func storeSwapped(t *Thread, addr vm.Addr, b []byte, size int) {
	var chunk [512]byte
	for len(b) > 0 {
		n := copy(chunk[:], b)
		swapElems(chunk[:n], size)
		t.Write(addr, chunk[:n])
		b, addr = b[n:], addr+vm.Addr(n)
	}
}

// decodeBytes converts a snapshot's raw page-image bytes to elements.
func decodeBytes[T Elem](raw []byte) []T {
	out := make([]T, len(raw)/elemSize[T]())
	copy(asBytes(out), raw)
	reorder[T](asBytes(out))
	return out
}

// bits32 and fromBits32 reinterpret a 4-byte element as the runtime's
// 32-bit word. Callers must have checked elemSize[T]() == 4.
func bits32[T Elem](v T) uint32     { return *(*uint32)(unsafe.Pointer(&v)) }
func fromBits32[T Elem](u uint32) T { return *(*T)(unsafe.Pointer(&u)) }

// reduceable reports whether T works with the runtime's Fetch-and-Φ
// operations, which act on 32-bit integer words.
func reduceable[T Elem]() bool {
	switch reflect.TypeOf(*new(T)).Kind() {
	case reflect.Int32, reflect.Uint32:
		return true
	}
	return false
}

// Array is a shared one-dimensional vector of n elements of type T.
// Reduction variables (a global minimum, counters) and flat buffers
// declare it.
type Array[T Elem] struct {
	p        *Program
	name     string
	base     vm.Addr
	n        int
	objects  []vm.Addr
	reduceOK bool
}

// Declare declares a shared n-element array under one annotation. With
// Reduction (and a 32-bit integer T), access it via FetchAndAdd and
// FetchAndMin.
func Declare[T Elem](p *Program, name string, n int, annot Annotation, opts ...DeclOption) *Array[T] {
	base := p.declare(name, n*elemSize[T](), annot, opts...)
	return &Array[T]{
		p: p, name: name, base: base, n: n,
		objects: p.objectStarts(base), reduceOK: reduceable[T](),
	}
}

// Base returns the array's shared address.
func (a *Array[T]) Base() vm.Addr { return a.base }

// Len returns the element count.
func (a *Array[T]) Len() int { return a.n }

// Objects returns the start addresses of the array's runtime objects.
func (a *Array[T]) Objects() []vm.Addr { return a.objects }

// Addr returns the shared address of element i.
func (a *Array[T]) Addr(i int) vm.Addr {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("munin: %s index %d out of range [0,%d)", a.name, i, a.n))
	}
	return a.base + vm.Addr(i*elemSize[T]())
}

// Init sets the initial element values (the sequential user_init phase,
// before the program runs). Fewer values than the length zero-fill the
// rest (a full-size buffer is installed, so re-initializing clears any
// previously set tail); more than the length is rejected.
func (a *Array[T]) Init(vals ...T) {
	if len(vals) > a.n {
		panic(fmt.Sprintf("munin: %d initial values for %q, declared length %d",
			len(vals), a.name, a.n))
	}
	full := make([]T, a.n)
	copy(full, vals)
	a.setInit(full)
}

// InitFunc fills every element from f.
func (a *Array[T]) InitFunc(f func(i int) T) {
	full := make([]T, a.n)
	for i := range full {
		full[i] = f(i)
	}
	a.setInit(full)
}

// setInit installs full, which it takes over, as the initial contents.
func (a *Array[T]) setInit(full []T) {
	data := asBytes(full)
	reorder[T](data)
	a.p.setInit(a.base, len(data), a.name, data)
}

// Get loads element i (replicating on demand).
func (a *Array[T]) Get(t *Thread, i int) T {
	addr := a.Addr(i)
	if elemSize[T]() == 4 {
		return fromBits32[T](t.ReadWord(addr))
	}
	var v [1]T
	load(t, addr, v[:])
	return v[0]
}

// Set stores element i under the variable's protocol.
func (a *Array[T]) Set(t *Thread, i int, v T) {
	addr := a.Addr(i)
	if elemSize[T]() == 4 {
		t.WriteWord(addr, bits32(v))
		return
	}
	w := [1]T{v}
	store(t, addr, w[:])
}

// Read copies elements [off, off+len(buf)) into buf, faulting pages as
// needed.
func (a *Array[T]) Read(t *Thread, off int, buf []T) {
	if len(buf) == 0 {
		return
	}
	_ = a.Addr(off + len(buf) - 1)
	load(t, a.Addr(off), buf)
}

// Write stores vals at elements [off, off+len(vals)), faulting pages for
// write.
func (a *Array[T]) Write(t *Thread, off int, vals []T) {
	if len(vals) == 0 {
		return
	}
	_ = a.Addr(off + len(vals) - 1)
	store(t, a.Addr(off), vals)
}

// checkReduce guards the Fetch-and-Φ surface, which the runtime defines
// on 32-bit integer words only.
func (a *Array[T]) checkReduce(op string) {
	if !a.reduceOK {
		panic(fmt.Sprintf("munin: %s on %s: %s needs a 32-bit integer element type",
			op, a.name, op))
	}
}

// reduceTarget bounds-checks element i and resolves the runtime object
// containing it: a page-split array's element beyond the first page
// belongs to a later page-sized object, and the runtime's Fetch-and-Φ
// addresses (object start, in-object word offset).
func (a *Array[T]) reduceTarget(i int) (vm.Addr, int) {
	addr := a.Addr(i)
	obj := a.base
	if len(a.objects) > 1 {
		page := vm.Addr(vm.DefaultPageSize)
		obj = a.base + (addr-a.base)/page*page
	}
	return obj, int(addr-obj) / 4
}

// FetchAndAdd atomically adds delta to element i, returning the old
// value (reduction objects with a 32-bit integer T only).
func (a *Array[T]) FetchAndAdd(t *Thread, i int, delta T) T {
	a.checkReduce("FetchAndAdd")
	obj, off := a.reduceTarget(i)
	return fromBits32[T](t.FetchAndAdd(obj, off, bits32(delta)))
}

// FetchAndMin atomically lowers element i to v if smaller (signed),
// returning the old value (reduction objects with a 32-bit integer T
// only).
func (a *Array[T]) FetchAndMin(t *Thread, i int, v T) T {
	a.checkReduce("FetchAndMin")
	obj, off := a.reduceTarget(i)
	return fromBits32[T](t.FetchAndMin(obj, off, bits32(v)))
}

// Snapshot reads the whole array as seen from node's current copies in
// the given run (home backing included). It fails if some object has no
// data at that node — typically meaning the caller wanted a node that
// never saw it.
func (a *Array[T]) Snapshot(r *Result, node int) ([]T, error) {
	raw, err := r.snapshot(node, a.objects, a.n*elemSize[T]())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.name, err)
	}
	return decodeBytes[T](raw), nil
}

// SnapshotAny reads the whole array, taking each object's bytes from
// whichever node currently holds valid data. After a fully synchronized
// program finishes, every valid copy is consistent, so any holder
// serves; this is what post-run verification needs when the final copies
// live at the workers (e.g. write-shared output under a Table 6
// override).
func (a *Array[T]) SnapshotAny(r *Result) ([]T, error) {
	raw, err := r.snapshotAny(a.objects, a.n*elemSize[T]())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.name, err)
	}
	return decodeBytes[T](raw), nil
}

// Matrix is a shared two-dimensional array, row-major. The paper's
// Matrix Multiply declares its inputs and output this way; SOR its grid.
type Matrix[T Elem] struct {
	arr        *Array[T]
	rows, cols int
}

// DeclareMatrix declares a rows×cols shared matrix with the given
// sharing annotation.
func DeclareMatrix[T Elem](p *Program, name string, rows, cols int, annot Annotation, opts ...DeclOption) *Matrix[T] {
	return &Matrix[T]{
		arr:  Declare[T](p, name, rows*cols, annot, opts...),
		rows: rows, cols: cols,
	}
}

// Base returns the matrix's shared address.
func (m *Matrix[T]) Base() vm.Addr { return m.arr.base }

// Rows returns the row count.
func (m *Matrix[T]) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix[T]) Cols() int { return m.cols }

// Objects returns the start addresses of the matrix's runtime objects.
func (m *Matrix[T]) Objects() []vm.Addr { return m.arr.objects }

// RowAddr returns the shared address of row i.
func (m *Matrix[T]) RowAddr(i int) vm.Addr {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("munin: %s row %d out of range", m.arr.name, i))
	}
	return m.arr.base + vm.Addr(i*m.cols*elemSize[T]())
}

// Init fills the matrix's initial contents (the work of the sequential
// user_init routine, performed before the program runs).
func (m *Matrix[T]) Init(f func(i, j int) T) {
	m.arr.InitFunc(func(k int) T { return f(k/m.cols, k%m.cols) })
}

// ReadRow copies row i into buf (len ≥ cols), faulting pages as needed.
func (m *Matrix[T]) ReadRow(t *Thread, i int, buf []T) {
	m.checkRow(i, len(buf))
	m.arr.Read(t, i*m.cols, buf[:m.cols])
}

// ScanRow calls fn on row i where it lies in the node's page copies, one
// segment per page the row spans, in column order; j is the segment's
// first column. It faults pages exactly as ReadRow does and copies
// nothing (a big-endian host swaps each segment through a stack chunk,
// so fn sees more, shorter segments there). seg is read-only and valid
// only during fn, and fn must not call into Munin: an access, Compute or
// a synchronization operation inside it panics. A kernel that needs two
// rows at once (a stencil) reads them with ReadRow instead.
func (m *Matrix[T]) ScanRow(t *Thread, i int, fn func(j int, seg []T)) {
	size := elemSize[T]()
	j := 0
	t.View(m.RowAddr(i), m.cols*size, func(b []byte) {
		if bigEndian {
			j = scanSwapped(b, j, fn)
			return
		}
		seg := asElems[T](b)
		fn(j, seg)
		j += len(seg)
	})
}

// asElems views page bytes as elements, the inverse of asBytes. b starts
// at an element boundary of an 8-byte-aligned page copy.
func asElems[T Elem](b []byte) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/elemSize[T]())
}

// scanSwapped is ScanRow's segment step on a big-endian host: it hands fn
// the segment b, starting at column j, in host order one stack chunk at a
// time, and returns the column after it.
func scanSwapped[T Elem](b []byte, j int, fn func(j int, seg []T)) int {
	var chunk [64]float64 // 512 bytes, aligned for every Elem
	cb := asBytes(chunk[:])
	for len(b) > 0 {
		n := copy(cb, b)
		swapElems(cb[:n], elemSize[T]())
		seg := asElems[T](cb[:n])
		fn(j, seg)
		j, b = j+len(seg), b[n:]
	}
	return j
}

// WriteRow stores vals (len ≥ cols) into row i, faulting pages for write.
func (m *Matrix[T]) WriteRow(t *Thread, i int, vals []T) {
	m.checkRow(i, len(vals))
	m.arr.Write(t, i*m.cols, vals[:m.cols])
}

// checkRow bounds-checks a row access through a caller buffer of n
// elements.
func (m *Matrix[T]) checkRow(i, n int) {
	_ = m.RowAddr(i)
	if n < m.cols {
		panic(fmt.Sprintf("munin: %s row buffer holds %d elements, need %d", m.arr.name, n, m.cols))
	}
}

// at bounds-checks both coordinates and returns the flat element index.
func (m *Matrix[T]) at(i, j int) int {
	_ = m.RowAddr(i)
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("munin: %s column %d out of range", m.arr.name, j))
	}
	return i*m.cols + j
}

// Get loads one element.
func (m *Matrix[T]) Get(t *Thread, i, j int) T {
	return m.arr.Get(t, m.at(i, j))
}

// Set stores one element.
func (m *Matrix[T]) Set(t *Thread, i, j int, v T) {
	m.arr.Set(t, m.at(i, j), v)
}

// Snapshot reads the whole matrix as seen from node's current copies in
// the given run (see Array.Snapshot).
func (m *Matrix[T]) Snapshot(r *Result, node int) ([]T, error) {
	return m.arr.Snapshot(r, node)
}

// SnapshotAny reads the whole matrix from any nodes holding valid data
// (see Array.SnapshotAny).
func (m *Matrix[T]) SnapshotAny(r *Result) ([]T, error) {
	return m.arr.SnapshotAny(r)
}

// SnapshotRows reads rows [lo, hi) from node's current copies. The node
// must hold every object overlapping that row range (a worker holds the
// pages covering its own section).
func (m *Matrix[T]) SnapshotRows(r *Result, node, lo, hi int) ([]T, error) {
	raw, err := r.snapshotRange(node, m.arr.objects,
		int(m.RowAddr(lo)-m.arr.base), (hi-lo)*m.cols*elemSize[T]())
	if err != nil {
		return nil, fmt.Errorf("%s rows [%d,%d): %w", m.arr.name, lo, hi, err)
	}
	return decodeBytes[T](raw), nil
}

// Var is a shared scalar of type T.
type Var[T Elem] struct {
	arr *Array[T]
}

// DeclareVar declares a shared scalar under one annotation. With
// Reduction (and a 32-bit integer T), access it via FetchAndAdd and
// FetchAndMin.
func DeclareVar[T Elem](p *Program, name string, annot Annotation, opts ...DeclOption) *Var[T] {
	return &Var[T]{arr: Declare[T](p, name, 1, annot, opts...)}
}

// Base returns the variable's shared address.
func (v *Var[T]) Base() vm.Addr { return v.arr.base }

// Init sets the initial value.
func (v *Var[T]) Init(val T) { v.arr.Init(val) }

// Get loads the value (replicating on demand).
func (v *Var[T]) Get(t *Thread) T { return v.arr.Get(t, 0) }

// Set stores the value under the variable's protocol.
func (v *Var[T]) Set(t *Thread, val T) { v.arr.Set(t, 0, val) }

// FetchAndAdd atomically adds delta, returning the old value (reduction
// objects with a 32-bit integer T only).
func (v *Var[T]) FetchAndAdd(t *Thread, delta T) T { return v.arr.FetchAndAdd(t, 0, delta) }

// FetchAndMin atomically lowers the value to val if smaller (signed),
// returning the old value (reduction objects with a 32-bit integer T
// only).
func (v *Var[T]) FetchAndMin(t *Thread, val T) T { return v.arr.FetchAndMin(t, 0, val) }

// Snapshot reads the value as seen from node's current copy in the
// given run.
func (v *Var[T]) Snapshot(r *Result, node int) (T, error) {
	s, err := v.arr.Snapshot(r, node)
	if err != nil {
		var zero T
		return zero, err
	}
	return s[0], nil
}

// SnapshotAny reads the value from any node holding valid data.
func (v *Var[T]) SnapshotAny(r *Result) (T, error) {
	s, err := v.arr.SnapshotAny(r)
	if err != nil {
		var zero T
		return zero, err
	}
	return s[0], nil
}
