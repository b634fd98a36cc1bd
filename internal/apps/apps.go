// Package apps holds the two evaluation applications of the paper —
// Matrix Multiply and Successive Over-Relaxation (SOR) — in their Munin
// form, plus the computational kernels and cost-charging helpers shared
// with the hand-coded message-passing versions in internal/mp.
//
// The paper took "special care to ensure that the actual computational
// components of both versions of each program are identical" (§4); here
// both versions call the same kernel functions and charge the same
// virtual compute time per unit of work.
package apps

import (
	"context"
	"hash/fnv"

	"munin"
	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/sim"
	"munin/internal/vm"
	"munin/internal/wire"
)

// App is one evaluation program in reusable form: the Program (built
// once), the root thread function, and a post-run check deriving the
// workload's output fingerprint from a Result. One App can run many
// times under different transports, overrides and machine knobs — the
// shape the benches sweep natively.
//
// The cost model is part of the App, not a per-run knob: the root
// function's Compute charges are priced with the build-time model, so
// every run is forced onto that same model (a caller's WithModel would
// otherwise silently blend two models in one run's timing).
type App struct {
	Prog *munin.Program
	Root func(*munin.Thread)
	// Check fingerprints the run's computed output.
	Check func(*munin.Result) (uint32, error)
	// Model is the cost model the Root's compute charges were built
	// with; Run pins every execution to it.
	Model model.CostModel
}

// Run executes the app once with the given per-run options.
func (a *App) Run(ctx context.Context, opts ...munin.RunOption) (RunResult, error) {
	// Pin the machine to the App's cost model, last so it cannot be
	// overridden into a mixed-model run.
	opts = append(append([]munin.RunOption(nil), opts...), munin.WithModel(a.Model))
	res, err := a.Prog.Run(ctx, a.Root, opts...)
	if err != nil {
		return RunResult{}, err
	}
	chk, err := a.Check(res)
	if err != nil {
		return RunResult{}, err
	}
	st := res.Stats()
	return RunResult{
		Elapsed:        st.Elapsed,
		RootUser:       st.RootUser,
		RootSystem:     st.RootSystem,
		Messages:       st.Messages,
		Sends:          st.Sends,
		BatchedInto:    st.BatchEnvelopes,
		Riders:         st.BatchedMessages,
		Bytes:          st.Bytes,
		PerKind:        st.PerKind,
		PerKindBytes:   st.PerKindBytes,
		Check:          chk,
		AdaptSwitches:  st.AdaptSwitches,
		LrcIntervals:   st.LrcIntervals,
		LrcDiffFetches: st.LrcDiffFetches,
		LrcRecordsGCed: st.LrcRecordsGCed,
		Latencies:      st.Latencies,
		res:            res,
	}, nil
}

// RunOpts translates the configs' shared per-run knobs into options
// (the cost model is not among them — it belongs to the App). The bench
// sweeps use it too, so single-shot wrappers and sweeps cannot drift
// apart in what they configure. lazy selects the lazy release
// consistency engine (WithConsistency(LazyRC)).
func RunOpts(transport string, override *protocol.Annotation, adaptive, exact, lazy bool) []munin.RunOption {
	var opts []munin.RunOption
	if transport != "" {
		opts = append(opts, munin.WithTransport(transport))
	}
	if override != nil {
		opts = append(opts, munin.WithOverride(*override))
	}
	if adaptive {
		opts = append(opts, munin.WithAdaptive())
	}
	if exact {
		opts = append(opts, munin.WithExactCopyset())
	}
	if lazy {
		opts = append(opts, munin.WithConsistency(munin.LazyRC))
	}
	return opts
}

// appendBatch appends munin.WithBatching when batch is set — the shape
// the single-shot app wrappers share.
func appendBatch(opts []munin.RunOption, batch bool) []munin.RunOption {
	if batch {
		opts = append(opts, munin.WithBatching())
	}
	return opts
}

// appendMetrics appends munin.WithMetrics when metrics is set. Recording
// charges nothing to the cost model, so a metrics run's virtual times
// and traffic are bit-identical to a bare one — the knob only decides
// whether RunResult.Latencies and Profile are populated.
func appendMetrics(opts []munin.RunOption, metrics bool) []munin.RunOption {
	if metrics {
		opts = append(opts, munin.WithMetrics())
	}
	return opts
}

// LiveTransport reports whether name selects a real concurrent
// transport (anything but the deterministic simulator) — the condition
// that forces SOR's phase barrier on (see SORConfig.PhaseBarrier).
func LiveTransport(name string) bool {
	return name != "" && name != munin.TransportSim
}

// MatMulConfig parameterizes a matrix-multiply run (Tables 3, 4, 6).
type MatMulConfig struct {
	// Procs is the number of processors (workers), 1–munin.MaxProcessors.
	Procs int
	// N is the square matrix dimension (the paper uses 400×400).
	N int
	// Model is the cost model (zero = default).
	Model model.CostModel
	// Single applies the SingleObject optimization to the fully-read
	// input matrix (Table 4).
	Single bool
	// Override forces one annotation on all shared data (Table 6).
	Override *protocol.Annotation
	// Exact selects the improved home-directed copyset determination
	// (ablation A4).
	Exact bool
	// Adaptive enables the adaptive protocol engine, which profiles the
	// (possibly mis-annotated) shared data and switches protocols online.
	Adaptive bool
	// Lazy selects the lazy release consistency engine (LazyRC).
	Lazy bool
	// Batch coalesces same-destination protocol messages into wire.Batch
	// envelopes (munin.WithBatching).
	Batch bool
	// Metrics enables latency histograms and hot-object profiles
	// (munin.WithMetrics; charges nothing to the cost model).
	Metrics bool
	// Transport selects the substrate: "sim" (default), "chan" or "mux".
	Transport string
}

// SORConfig parameterizes an SOR run (Tables 5, 6).
type SORConfig struct {
	// Procs is the number of processors (workers), 1–munin.MaxProcessors.
	Procs int
	// Rows and Cols give the grid size. With 2048 float32 columns a row
	// is exactly one 8 KB page, the regime the paper's "one message
	// exchange between adjacent sections per iteration" analysis assumes.
	Rows, Cols int
	// Iters is the number of relaxation iterations (the paper runs 100).
	Iters int
	// Model is the cost model (zero = default).
	Model model.CostModel
	// Override forces one annotation on all shared data (Table 6).
	Override *protocol.Annotation
	// Exact selects the improved home-directed copyset determination
	// (ablation A4).
	Exact bool
	// Adaptive enables the adaptive protocol engine, which profiles the
	// (possibly mis-annotated) shared data and switches protocols online.
	Adaptive bool
	// Lazy selects the lazy release consistency engine (LazyRC).
	Lazy bool
	// Batch coalesces same-destination protocol messages into wire.Batch
	// envelopes (munin.WithBatching).
	Batch bool
	// Metrics enables latency histograms and hot-object profiles
	// (munin.WithMetrics; charges nothing to the cost model).
	Metrics bool
	// Transport selects the substrate: "sim" (default), "chan" or "mux".
	Transport string
	// PhaseBarrier inserts a second barrier between the compute and copy
	// phases of every iteration, making the program data-race-free. The
	// paper's single-barrier program relies on every worker's reads
	// completing before any worker's release — deterministically true
	// under the simulator's cost model, but mere chaotic relaxation under
	// real concurrency, so MuninSOR forces this on for the "chan" and
	// "mux" transports. The cross-transport equivalence tests also set it
	// on "sim" so the final grid is bit-identical on every transport.
	PhaseBarrier bool
}

// RunResult reports one run's measurements in the paper's terms.
type RunResult struct {
	// Elapsed is total execution time.
	Elapsed sim.Time
	// RootUser and RootSystem are the root node's user/system split
	// (zero for the message-passing versions' System, which has no DSM
	// runtime).
	RootUser   sim.Time
	RootSystem sim.Time
	// Messages and Bytes count all network traffic. Sends counts
	// transport sends: equal to Messages without batching, lower with
	// munin.WithBatching (BatchedInto counts the envelopes and Riders
	// the messages that rode inside them).
	Messages    int
	Sends       int
	BatchedInto int
	Riders      int
	Bytes       int
	// PerKind and PerKindBytes break Munin traffic down by protocol
	// message type (nil for the message-passing versions).
	PerKind      map[wire.Kind]int
	PerKindBytes map[wire.Kind]int
	// Check fingerprints the computed output so Munin, message-passing
	// and sequential reference runs can be compared exactly.
	Check uint32
	// AdaptSwitches counts annotation switches the adaptive engine
	// committed during the run (zero when not adaptive).
	AdaptSwitches int
	// LrcIntervals, LrcDiffFetches and LrcRecordsGCed count the lazy
	// engine's activity (zero on eager runs).
	LrcIntervals   int
	LrcDiffFetches int
	LrcRecordsGCed int
	// Latencies holds the per-operation latency percentiles of a
	// munin.WithMetrics run, keyed by operation name; nil when metrics
	// were off (see munin.Stats.Latencies).
	Latencies map[string]munin.LatencySummary `json:",omitempty"`

	// res retains the finished run for post-run inspection (nil for the
	// message-passing versions).
	res *munin.Result
}

// FinalImage returns the run's final shared-memory image, keyed by
// object start address (nil for the message-passing versions). The
// cross-transport equivalence tests compare these byte for byte.
func (r RunResult) FinalImage() map[vm.Addr][]byte {
	if r.res == nil {
		return nil
	}
	return r.res.FinalImage()
}

// FinalAnnotations reports, after an adaptive run, the annotation each
// declared variable converged to (nil for the message-passing versions).
func (r RunResult) FinalAnnotations() map[vm.Addr]protocol.Annotation {
	if r.res == nil {
		return nil
	}
	return r.res.FinalAnnotations()
}

// Profile returns the run's hot-object profiles, hottest first (nil
// unless the run used munin.WithMetrics).
func (r RunResult) Profile() []munin.ObjectProfile {
	if r.res == nil {
		return nil
	}
	return r.res.Profile()
}

// ObjectName resolves a profiled object's address to its declared
// variable name (empty for the message-passing versions).
func (r RunResult) ObjectName(addr uint64) string {
	if r.res == nil {
		return ""
	}
	return r.res.ObjectName(addr)
}

// MACRow is the matrix-multiply inner loop: dst[j] += aik * brow[j].
func MACRow(dst []int32, aik int32, brow []int32) {
	dst = dst[:len(brow)] // one bounds check here, none per element
	for j, b := range brow {
		dst[j] += aik * b
	}
}

// SORStencilRow computes one interior row of the SOR sweep into dst:
// dst[j] = (up[j] + down[j] + mid[j-1] + mid[j+1]) / 4 for interior j;
// boundary columns copy through.
func SORStencilRow(dst, up, mid, down []float32) {
	n := len(dst)
	dst[0] = mid[0]
	dst[n-1] = mid[n-1]
	for j := 1; j < n-1; j++ {
		dst[j] = (up[j] + down[j] + mid[j-1] + mid[j+1]) / 4
	}
}

// MatMulRowCost is the compute charge for one output row of an n-wide
// multiply: n² multiply-accumulates.
func MatMulRowCost(m model.CostModel, n int) sim.Time {
	return sim.Time(n) * sim.Time(n) * m.MatMulOp
}

// SORRowCost is the compute charge for one grid row per iteration:
// cols point updates plus the copy-phase touch of the row's bytes.
func SORRowCost(m model.CostModel, cols int) sim.Time {
	return sim.Time(cols)*m.SORPoint + sim.Time(cols*4)*m.MemTouchPerByte
}

// ChecksumInt32 fingerprints an int32 matrix.
func ChecksumInt32(v []int32) uint32 {
	h := fnv.New32a()
	var b [4]byte
	for _, x := range v {
		b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(b[:])
	}
	return h.Sum32()
}

// ChecksumFloat32Sum fingerprints a float32 grid by summation (bitwise
// checksums are too brittle across summation orders; the grids here are
// produced by identical operation sequences, so exact sums match).
func ChecksumFloat32Sum(v []float32) uint32 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return uint32(int64(s * 16))
}

// MatMulInit gives the input matrices' initial values; all versions use
// the same generator.
func MatMulInit(i, j int) (a, b int32) {
	return int32(i + 2*j), int32(3*i - j)
}

// SORInit gives the grid's initial values: a hot top edge over a varied
// interior. The variation matters: with a uniform interior most of the
// grid never changes value, no diffs flow, and the runs degenerate away
// from the paper's "one message exchange between adjacent sections per
// iteration" regime.
func SORInit(i, j int) float32 {
	if i == 0 {
		return 100
	}
	return float32((i*31 + j*17) % 101)
}

// MatMulReference computes the product sequentially in plain Go and
// returns its checksum (ground truth for both system versions).
func MatMulReference(n int) uint32 {
	a := make([]int32, n*n)
	b := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j], b[i*n+j] = MatMulInit(i, j)
		}
	}
	c := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			MACRow(c[i*n:(i+1)*n], a[i*n+k], b[k*n:(k+1)*n])
		}
	}
	return ChecksumInt32(c)
}

// SORReference runs the sweep sequentially and returns the grid checksum.
func SORReference(rows, cols, iters int) uint32 {
	grid := make([][]float32, rows)
	for i := range grid {
		grid[i] = make([]float32, cols)
		for j := range grid[i] {
			grid[i][j] = SORInit(i, j)
		}
	}
	scratch := make([][]float32, rows)
	for i := range scratch {
		scratch[i] = make([]float32, cols)
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < rows; i++ {
			if i == 0 || i == rows-1 {
				copy(scratch[i], grid[i])
				continue
			}
			SORStencilRow(scratch[i], grid[i-1], grid[i], grid[i+1])
		}
		grid, scratch = scratch, grid
	}
	flat := make([]float32, 0, rows*cols)
	for i := range grid {
		flat = append(flat, grid[i]...)
	}
	return ChecksumFloat32Sum(flat)
}
