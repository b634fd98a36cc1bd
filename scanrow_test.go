package munin

// Tests for Matrix.ScanRow, the in-place row read: its segments tile the
// row in column order and hold exactly what ReadRow copies, it takes the
// same page faults ReadRow does, and a callback that calls back into the
// runtime is stopped with a panic that names ScanRow.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"munin/internal/vm"
)

// scanRowRun declares a rows×cols read_only matrix homed at node 0 and has
// a worker on every other node read all of it, by ScanRow or by ReadRow.
// With scan set, every row's segments are checked against the column they
// claim to start at, against ReadRow (which by then faults nothing more)
// and against the initial contents. It returns each node's read-fault
// count.
func scanRowRun[T Elem](t *testing.T, transport string, rows, cols int, scan bool) []int {
	t.Helper()
	const procs = 3
	init := func(i, j int) T { return T(i*cols + j + 1) }
	p := NewProgram(procs)
	m := DeclareMatrix[T](p, "m", rows, cols, ReadOnly)
	m.Init(init)
	done := p.CreateBarrier(procs)
	errs := make([]error, procs)
	res, err := p.Run(context.Background(), func(root *Thread) {
		for w := 1; w < procs; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("reader%d", w), func(th *Thread) {
				errs[w] = readAll(th, m, scan, init)
				done.Wait(th)
			})
		}
		done.Wait(root)
	}, WithTransport(transport))
	if err != nil {
		t.Fatal(err)
	}
	for w, err := range errs {
		if err != nil {
			t.Errorf("%s node %d: %v", transport, w, err)
		}
	}
	faults := make([]int, procs)
	for i := range faults {
		faults[i] = res.sys.Node(i).Space().ReadFaults
	}
	return faults
}

// readAll reads every row of m on th, as scanRowRun describes.
func readAll[T Elem](th *Thread, m *Matrix[T], scan bool, init func(i, j int) T) error {
	buf := make([]T, m.Cols())
	for i := 0; i < m.Rows(); i++ {
		if !scan {
			m.ReadRow(th, i, buf)
			continue
		}
		var got []T
		next, segs := 0, 0
		var bad error
		m.ScanRow(th, i, func(j int, seg []T) {
			if j != next && bad == nil {
				bad = fmt.Errorf("row %d: segment %d starts at column %d, want %d", i, segs, j, next)
			}
			segs++
			next = j + len(seg)
			got = append(got, seg...)
		})
		if bad != nil {
			return bad
		}
		if next != m.Cols() {
			return fmt.Errorf("row %d: segments end at column %d, want %d", i, next, m.Cols())
		}
		if !bigEndian {
			pages := len(vm.NewSpace(0).PageSpan(m.RowAddr(i), m.Cols()*elemSize[T]()))
			if segs != pages {
				return fmt.Errorf("row %d: %d segments, want one per page (%d)", i, segs, pages)
			}
		}
		m.ReadRow(th, i, buf)
		for j := range buf {
			if got[j] != buf[j] || got[j] != init(i, j) {
				return fmt.Errorf("row %d column %d: ScanRow %v, ReadRow %v, want %v", i, j, got[j], buf[j], init(i, j))
			}
		}
	}
	return nil
}

// TestScanRowMatchesReadRow: on sim and chan, for rows that straddle page
// boundaries (800 int32 columns, 1000 float64 columns), ScanRow's
// segments tile [0, cols) in order, equal ReadRow element for element,
// and cost exactly ReadRow's read faults on every node.
func TestScanRowMatchesReadRow(t *testing.T) {
	for _, transport := range []string{"sim", "chan"} {
		t.Run(transport+"/int32x800", func(t *testing.T) {
			scanRowCase[int32](t, transport, 37, 800)
		})
		t.Run(transport+"/float64x1000", func(t *testing.T) {
			scanRowCase[float64](t, transport, 23, 1000)
		})
	}
}

func scanRowCase[T Elem](t *testing.T, transport string, rows, cols int) {
	scanned := scanRowRun[T](t, transport, rows, cols, true)
	copied := scanRowRun[T](t, transport, rows, cols, false)
	for i := range scanned {
		if scanned[i] != copied[i] {
			t.Errorf("node %d: %d read faults under ScanRow, %d under ReadRow", i, scanned[i], copied[i])
		}
	}
	if scanned[1] == 0 {
		t.Error("the readers took no read faults: the test reads nothing remote")
	}
}

// TestScanRowCallbackMustNotCallMunin: each runtime entry point called
// from a ScanRow callback panics with a message naming ScanRow and the
// entry point, which the run reports as its error.
func TestScanRowCallbackMustNotCallMunin(t *testing.T) {
	for name, c := range map[string]struct {
		op   string // what the message names
		call func(th *Thread, m *Matrix[int32], lock Lock)
	}{
		"Get":         {"ReadWord", func(th *Thread, m *Matrix[int32], _ Lock) { m.Get(th, 1, 0) }},
		"ReadRow":     {"Read", func(th *Thread, m *Matrix[int32], _ Lock) { m.ReadRow(th, 1, make([]int32, m.Cols())) }},
		"nested scan": {"View", func(th *Thread, m *Matrix[int32], _ Lock) { m.ScanRow(th, 1, func(int, []int32) {}) }},
		"Compute":     {"Compute", func(th *Thread, _ *Matrix[int32], _ Lock) { th.Compute(1) }},
		"Acquire":     {"synchronization", func(th *Thread, _ *Matrix[int32], l Lock) { l.Acquire(th) }},
	} {
		t.Run(name, func(t *testing.T) {
			p := NewProgram(1)
			m := DeclareMatrix[int32](p, "m", 2, 16, ReadOnly)
			lock := p.CreateLock()
			_, err := p.Run(context.Background(), func(root *Thread) {
				m.ScanRow(root, 0, func(int, []int32) { c.call(root, m, lock) })
			})
			if err == nil || !strings.Contains(err.Error(), "ScanRow") || !strings.Contains(err.Error(), c.op) {
				t.Fatalf("run error = %v, want a panic naming ScanRow and %s", err, c.op)
			}
		})
	}
}
