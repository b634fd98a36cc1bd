package munin_test

// One benchmark per table and figure of the paper's evaluation (§4), plus
// the DESIGN.md ablations. Wall-clock numbers measure the simulator;
// the paper's quantities — virtual execution time, Munin-vs-message-
// passing difference, message counts — are reported as custom metrics:
//
//	vsec/op    virtual seconds of the simulated run
//	diff%      100·(Munin−DM)/DM for the application tables
//	msgs/op    network messages in the simulated run
//
// go test -bench=. -benchmem regenerates every row shape; the exact
// paper-format tables come from cmd/munin-bench.

import (
	"context"
	"testing"

	"munin"
	"munin/internal/apps"
	"munin/internal/bench"
	"munin/internal/diffenc"
	"munin/internal/model"
	"munin/internal/mp"
	"munin/internal/protocol"
	"munin/internal/wire"
)

// benchProcs are the processor counts benchmarked per application table
// (the paper sweeps 1–16; the middle counts behave similarly).
var benchProcs = []int{1, 4, 16}

// BenchmarkTable2DUQ measures handling an 8 KB object through the delayed
// update queue for the paper's three write patterns (Table 2).
func BenchmarkTable2DUQ(b *testing.B) {
	for _, p := range bench.Patterns() {
		b.Run(p.String(), func(b *testing.B) {
			var total, flush float64
			for i := 0; i < b.N; i++ {
				t2, err := bench.RunTable2(model.Default())
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range t2.Columns {
					if c.Pattern == p {
						total = c.Total.Milliseconds()
						flush = c.MeasuredTotal.Milliseconds()
					}
				}
			}
			b.ReportMetric(total, "model-ms")
			b.ReportMetric(flush, "measured-ms")
		})
	}
}

// benchmarkMatMul runs one Munin-vs-DM matrix multiply comparison.
func benchmarkMatMul(b *testing.B, procs int, single bool) {
	b.Helper()
	cfg := apps.MatMulConfig{Procs: procs, N: 400, Single: single}
	app, err := apps.NewMatMul(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var mu, dm apps.RunResult
	for i := 0; i < b.N; i++ {
		if mu, err = app.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		if dm, err = mp.MatMul(cfg); err != nil {
			b.Fatal(err)
		}
	}
	if mu.Check != dm.Check {
		b.Fatalf("checksum mismatch: munin %08x, dm %08x", mu.Check, dm.Check)
	}
	b.ReportMetric(mu.Elapsed.Seconds(), "vsec/op")
	b.ReportMetric(100*float64(mu.Elapsed-dm.Elapsed)/float64(dm.Elapsed), "diff%")
	b.ReportMetric(float64(mu.Messages), "msgs/op")
}

// BenchmarkTable3MatrixMultiply regenerates Table 3's rows.
func BenchmarkTable3MatrixMultiply(b *testing.B) {
	for _, procs := range benchProcs {
		b.Run(benchName(procs), func(b *testing.B) { benchmarkMatMul(b, procs, false) })
	}
}

// BenchmarkTable4OptimizedMM regenerates Table 4's rows (SingleObject on
// the fully-read input matrix).
func BenchmarkTable4OptimizedMM(b *testing.B) {
	for _, procs := range benchProcs {
		b.Run(benchName(procs), func(b *testing.B) { benchmarkMatMul(b, procs, true) })
	}
}

// BenchmarkTable5SOR regenerates Table 5's rows (a shorter run per
// benchmark iteration; the per-iteration steady state is what matters).
func BenchmarkTable5SOR(b *testing.B) {
	for _, procs := range benchProcs {
		b.Run(benchName(procs), func(b *testing.B) {
			cfg := apps.SORConfig{Procs: procs, Rows: 512, Cols: 2048, Iters: 25}
			app, err := apps.NewSOR(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var mu, dm apps.RunResult
			for i := 0; i < b.N; i++ {
				if mu, err = app.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				if dm, err = mp.SOR(cfg); err != nil {
					b.Fatal(err)
				}
			}
			if mu.Check != dm.Check {
				b.Fatalf("checksum mismatch: munin %08x, dm %08x", mu.Check, dm.Check)
			}
			b.ReportMetric(mu.Elapsed.Seconds(), "vsec/op")
			b.ReportMetric(100*float64(mu.Elapsed-dm.Elapsed)/float64(dm.Elapsed), "diff%")
			b.ReportMetric(float64(mu.Messages), "msgs/op")
		})
	}
}

// BenchmarkTable6MultiProtocol regenerates Table 6: each evaluation
// program at 16 processors under its own annotations versus the
// single-protocol overrides.
func BenchmarkTable6MultiProtocol(b *testing.B) {
	mm, err := apps.NewMatMul(apps.MatMulConfig{Procs: 16, N: 400})
	if err != nil {
		b.Fatal(err)
	}
	sor, err := apps.NewSOR(apps.SORConfig{Procs: 16, Rows: 512, Cols: 2048, Iters: 25})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opts []munin.RunOption
	}{
		{"Multiple", nil},
		{"WriteShared", []munin.RunOption{munin.WithOverride(protocol.WriteShared)}},
		{"Conventional", []munin.RunOption{munin.WithOverride(protocol.Conventional)}},
	} {
		for _, w := range []struct {
			name string
			app  *apps.App
		}{{"MatMul", mm}, {"SOR", sor}} {
			b.Run(w.name+"/"+cfg.name, func(b *testing.B) {
				var r apps.RunResult
				var err error
				for i := 0; i < b.N; i++ {
					if r, err = w.app.Run(context.Background(), cfg.opts...); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.Elapsed.Seconds(), "vsec/op")
				b.ReportMetric(float64(r.Messages), "msgs/op")
			})
		}
	}
}

// BenchmarkTable6FalseSharing regenerates the Table 6 comparison in the
// false-sharing, compute-light regime where the single-writer protocol's
// page ping-pong dominates (the paper's "conventional more than twice
// multiple" factor for SOR).
func BenchmarkTable6FalseSharing(b *testing.B) {
	var t6 bench.Table6
	var err error
	for i := 0; i < b.N; i++ {
		if t6, err = bench.RunTable6FalseSharing(bench.Table6Opts{}); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range t6.Rows {
		b.ReportMetric(r.SOR.Seconds(), "sor-"+metricUnit(r.Name)+"-vsec")
	}
}

// ablationBench runs one ablation study per iteration and reports each
// configuration's virtual time.
func ablationBench(b *testing.B, run func(bench.AblationOpts) (bench.Ablation, error)) {
	b.Helper()
	var a bench.Ablation
	var err error
	for i := 0; i < b.N; i++ {
		if a, err = run(bench.AblationOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range a.Rows {
		b.ReportMetric(r.Elapsed.Seconds(), metricUnit(r.Name)+"-vsec")
	}
}

// metricUnit turns a configuration name into a legal benchmark unit.
func metricUnit(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '\t':
			out = append(out, '-')
		case r == '(' || r == ')' || r == '+':
			// drop
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkAblationA1UpdateVsInvalidate compares update-based and
// delayed-invalidation write-shared protocols.
func BenchmarkAblationA1UpdateVsInvalidate(b *testing.B) { ablationBench(b, bench.RunAblationA1) }

// BenchmarkAblationA2StableSharing isolates the stable-sharing bit.
func BenchmarkAblationA2StableSharing(b *testing.B) { ablationBench(b, bench.RunAblationA2) }

// BenchmarkAblationA3LockAssociation measures AssociateDataAndSynch.
func BenchmarkAblationA3LockAssociation(b *testing.B) { ablationBench(b, bench.RunAblationA3) }

// BenchmarkAblationA4CopysetAlgorithm compares broadcast and home-directed
// copyset determination.
func BenchmarkAblationA4CopysetAlgorithm(b *testing.B) { ablationBench(b, bench.RunAblationA4) }

// BenchmarkAblationA5BarrierTree compares centralized and tree barrier
// release.
func BenchmarkAblationA5BarrierTree(b *testing.B) { ablationBench(b, bench.RunAblationA5) }

// BenchmarkAblationA6PendingUpdates compares eager update application and
// the pending update queue.
func BenchmarkAblationA6PendingUpdates(b *testing.B) { ablationBench(b, bench.RunAblationA6) }

// BenchmarkExtraTSP compares the Munin and message-passing
// branch-and-bound TSP (beyond the paper's tables).
func BenchmarkExtraTSP(b *testing.B) {
	for _, procs := range benchProcs {
		b.Run(benchName(procs), func(b *testing.B) {
			cfg := apps.TSPConfig{Procs: procs, Cities: 11}
			app, err := apps.NewTSP(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var mu apps.RunResult
			for i := 0; i < b.N; i++ {
				if mu, err = app.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				if _, err = mp.TSP(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mu.Elapsed.Seconds(), "vsec/op")
			b.ReportMetric(float64(mu.Messages), "msgs/op")
		})
	}
}

// --- Substrate micro-benchmarks (simulator performance, not the paper's
// quantities, but what bounds how fast the tables regenerate) ---

// BenchmarkDiffEncode measures the twin/diff codec over an 8 KB object
// for the three Table 2 patterns.
func BenchmarkDiffEncode(b *testing.B) {
	for _, p := range bench.Patterns() {
		b.Run(p.String(), func(b *testing.B) {
			twin := make([]byte, bench.Table2ObjectBytes)
			for i := range twin {
				twin[i] = byte(i * 31)
			}
			cur := append([]byte(nil), twin...)
			p.Mutate(cur)
			b.SetBytes(int64(len(cur)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				diff, _ := diffenc.Encode(twin, cur)
				if i == 0 && len(diff) == 0 {
					b.Fatal("empty diff for a mutated object")
				}
			}
		})
	}
}

// BenchmarkDiffDecode measures merging an alternate-words diff.
func BenchmarkDiffDecode(b *testing.B) {
	twin := make([]byte, bench.Table2ObjectBytes)
	cur := append([]byte(nil), twin...)
	bench.AlternateWords.Mutate(cur)
	diff, _ := diffenc.Encode(twin, cur)
	dst := append([]byte(nil), twin...)
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diffenc.Decode(dst, diff); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRoundTrip measures marshalling and unmarshalling an 8 KB
// update batch — every simulated message pays this.
func BenchmarkWireRoundTrip(b *testing.B) {
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i)
	}
	msg := wire.UpdateBatch{From: 1, NeedAck: true, Entries: []wire.UpdateEntry{
		{Addr: 0x80000000, Size: 8192, Full: payload},
	}}
	b.SetBytes(int64(wire.Size(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(wire.Marshal(msg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCriticalSection measures the lock-handoff path end to end (the
// A3 workload at small scale).
func BenchmarkCriticalSection(b *testing.B) {
	for _, assoc := range []bool{false, true} {
		name := "Unassociated"
		if assoc {
			name = "Associated"
		}
		b.Run(name, func(b *testing.B) {
			var r bench.CriticalSectionResult
			var err error
			for i := 0; i < b.N; i++ {
				if r, err = bench.RunCriticalSection(model.CostModel{}, 8, 10, assoc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Elapsed.Seconds(), "vsec/op")
			b.ReportMetric(float64(r.Messages), "msgs/op")
		})
	}
}

// accessBench times body on the root thread of a one-node program whose
// float32 matrix — 64 rows of 8 KB, one page each — is already valid for
// write: the access path alone, no fault and no message. CI gates these
// at 0 allocs/op.
func accessBench(b *testing.B, body func(t *munin.Thread, m *munin.Matrix[float32], row []float32)) {
	const rows, cols = 64, accessBenchCols
	p := munin.NewProgram(1)
	m := munin.DeclareMatrix[float32](p, "rows", rows, cols, munin.WriteShared)
	_, err := p.Run(context.Background(), func(t *munin.Thread) {
		row := make([]float32, cols)
		for i := 0; i < rows; i++ {
			m.WriteRow(t, i, row)
		}
		b.ReportAllocs()
		b.ResetTimer()
		body(t, m, row)
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// accessBenchCols is the row length accessBench declares: 8 KB of float32.
const accessBenchCols = 2048

// nsPerWord reports a row benchmark's cost per 32-bit word moved.
func nsPerWord(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accessBenchCols), "ns/word")
}

// BenchmarkReadRow measures Matrix.ReadRow of one 8 KB row.
func BenchmarkReadRow(b *testing.B) {
	accessBench(b, func(t *munin.Thread, m *munin.Matrix[float32], row []float32) {
		for i := 0; i < b.N; i++ {
			m.ReadRow(t, i%m.Rows(), row)
		}
	})
	nsPerWord(b)
}

// BenchmarkScanRow measures Matrix.ScanRow of one 8 KB row with a
// callback that touches one word per segment: what lending a row in
// place costs, with no copy for the kernel to amortize.
func BenchmarkScanRow(b *testing.B) {
	var acc float32
	accessBench(b, func(t *munin.Thread, m *munin.Matrix[float32], _ []float32) {
		for i := 0; i < b.N; i++ {
			m.ScanRow(t, i%m.Rows(), func(_ int, seg []float32) { acc += seg[len(seg)-1] })
		}
	})
	_ = acc
	nsPerWord(b)
}

// BenchmarkWriteRow measures Matrix.WriteRow of one 8 KB row.
func BenchmarkWriteRow(b *testing.B) {
	accessBench(b, func(t *munin.Thread, m *munin.Matrix[float32], row []float32) {
		for i := 0; i < b.N; i++ {
			m.WriteRow(t, i%m.Rows(), row)
		}
	})
	nsPerWord(b)
}

// BenchmarkGet measures one-element loads striding across the pages.
func BenchmarkGet(b *testing.B) {
	var acc float32
	accessBench(b, func(t *munin.Thread, m *munin.Matrix[float32], _ []float32) {
		for i := 0; i < b.N; i++ {
			acc += m.Get(t, i%m.Rows(), i*7%m.Cols())
		}
	})
	_ = acc
}

func benchName(procs int) string {
	switch procs {
	case 1:
		return "p01"
	case 4:
		return "p04"
	default:
		return "p16"
	}
}
