package wire

// Tiered size-class buffer pools. Every transport borrows buffers here
// — the simulator to size and round-trip each message, the live runtimes
// to encode sends, frame them, and hold the received bytes the view
// decoder hands to the dispatcher as a borrowed message. Those buffers
// outlive a send and span three orders of magnitude in size (a lock
// acquire vs a piggybacked page image), so there are four classes — 1 KB,
// 8 KB, 64 KB, 512 KB — and a returned buffer is routed by capacity.
// Every encoder asks for GetBufN(Size(msg)): a buffer drawn from too
// small a class regrows on append and is then filed under a class its
// next borrower never looks in.

import (
	"sync"
	"sync/atomic"
)

// classSizes are the pool size classes, smallest first. A request larger
// than the top class gets a plain allocation (returned buffers that
// outgrew every class are dropped for the garbage collector).
var classSizes = [...]int{1 << 10, 8 << 10, 64 << 10, 512 << 10}

var pools [len(classSizes)]sync.Pool

func init() {
	for i := range pools {
		size := classSizes[i]
		pools[i].New = func() any { b := make([]byte, 0, size); return &b }
	}
}

// outstanding counts buffers handed out and not yet returned — the
// balance the leak checks assert returns to its starting value.
var outstanding atomic.Int64

// GetBuf returns a zero-length pooled buffer of the smallest class. No
// code in this module calls it any more (encoders size their request
// with GetBufN); it is kept for the perf module's pooled-encode
// measurement.
// perf/replay.go is the one caller left; delete this when perf/ moves to GetBufN.
func GetBuf() *[]byte { return GetBufN(0) }

// GetBufN returns a zero-length pooled buffer with at least n bytes of
// capacity, from the smallest adequate size class. Requests beyond the
// largest class are plainly allocated (and still counted outstanding
// until PutBuf).
func GetBufN(n int) *[]byte {
	outstanding.Add(1)
	for i := range classSizes {
		if n <= classSizes[i] {
			bp := pools[i].Get().(*[]byte)
			*bp = (*bp)[:0]
			return bp
		}
	}
	b := make([]byte, 0, n)
	return &b
}

// PutBuf recycles a buffer obtained from GetBuf/GetBufN, routing it by
// capacity to the largest class it can serve. The caller must not retain
// the contents past this call.
func PutBuf(bp *[]byte) {
	outstanding.Add(-1)
	c := cap(*bp)
	for i := len(classSizes) - 1; i >= 0; i-- {
		if c >= classSizes[i] {
			pools[i].Put(bp)
			return
		}
	}
	// Below the smallest class (an external slice handed in): drop it.
}

// Outstanding reports the number of pooled buffers currently borrowed.
// Tests snapshot it around an operation to prove every borrow is
// returned; it is monotone only under leaks.
func Outstanding() int64 { return outstanding.Load() }
