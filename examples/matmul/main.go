// Matrix Multiply — the first evaluation program of the paper (§4.1),
// written against the public API exactly as its shared declarations read:
//
//	shared read_only int input1[N][N];
//	shared read_only int input2[N][N];
//	shared result    int output[N][N];
//
// Each worker computes a block of output rows. Workers page the inputs in
// on first access; output writes are buffered in the delayed update queue
// and flushed — straight to the root, because output is a result object —
// when the worker reaches the final barrier. After initialization each
// worker therefore sends a single batched result message, the same
// communication pattern as a hand-coded message-passing program.
//
// The Program is built once and executed twice: under the paper's
// multi-protocol annotations, and again (the same value, no rebuilding)
// with everything forced to one protocol — the Table 6 comparison in
// eight lines.
//
// Run with:
//
//	go run ./examples/matmul -n 200 -procs 8 [-single]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"munin"
)

func main() {
	var (
		n      = flag.Int("n", 200, "matrix dimension")
		procs  = flag.Int("procs", 8, "processors (1-16)")
		single = flag.Bool("single", false, "treat input2 as a single object (the §2.5 SingleObject optimization)")
	)
	flag.Parse()

	p := munin.NewProgram(*procs)

	var opts []munin.DeclOption
	if *single {
		opts = append(opts, munin.WithSingleObject())
	}
	input1 := munin.DeclareMatrix[int32](p, "input1", *n, *n, munin.ReadOnly)
	input2 := munin.DeclareMatrix[int32](p, "input2", *n, *n, munin.ReadOnly, opts...)
	output := munin.DeclareMatrix[int32](p, "output", *n, *n, munin.ResultObject)

	// user_init: fill the inputs sequentially before the program runs.
	input1.Init(func(i, j int) int32 { return int32(i + 2*j) })
	input2.Init(func(i, j int) int32 { return int32(3*i - j) })

	done := p.CreateBarrier(*procs + 1)

	dim := *n
	workers := *procs
	root := func(root *munin.Thread) {
		for w := 0; w < workers; w++ {
			w := w
			lo, hi := w*dim/workers, (w+1)*dim/workers
			root.Spawn(w, fmt.Sprintf("worker%d", w), func(t *munin.Thread) {
				arow := make([]int32, dim)
				crow := make([]int32, dim)
				for i := lo; i < hi; i++ {
					input1.ReadRow(t, i, arow)
					for j := range crow {
						crow[j] = 0
					}
					for k := 0; k < dim; k++ {
						// ScanRow lends the row's page bytes in place, a
						// segment per page: no copy into a row buffer.
						aik := arow[k]
						input2.ScanRow(t, k, func(j int, seg []int32) {
							for x, b := range seg {
								crow[j+x] += aik * b
							}
						})
					}
					output.WriteRow(t, i, crow)
				}
				done.Wait(t)
			})
		}
		done.Wait(root)
	}

	res, err := p.Run(context.Background(), root)
	if err != nil {
		log.Fatal(err)
	}

	// user_done: the product is at the root (the result flushes carried
	// it); spot-check one element against a direct computation.
	got, err := output.Snapshot(res, 0)
	if err != nil {
		log.Fatal(err)
	}
	i, j := dim/2, dim/3
	var want int64
	for k := 0; k < dim; k++ {
		want += int64(i+2*k) * int64(3*k-j)
	}
	fmt.Printf("output[%d][%d] = %d (check %d)\n", i, j, got[i*dim+j], want)
	if int64(got[i*dim+j]) != want {
		log.Fatal("matmul: spot check disagrees with the direct computation")
	}

	st := res.Stats()
	fmt.Printf("multi-protocol: %.3f virtual s (root: %.3f user + %.3f system), %d messages\n",
		st.Elapsed.Seconds(), st.RootUser.Seconds(), st.RootSystem.Seconds(), st.Messages)

	// Same Program, second run: everything forced write-shared (a Table 6
	// single-protocol configuration) — no redeclaration needed.
	res2, err := p.Run(context.Background(), root, munin.WithOverride(munin.WriteShared))
	if err != nil {
		log.Fatal(err)
	}
	st2 := res2.Stats()
	fmt.Printf("write-shared override: %.3f virtual s, %d messages (%+.1f%% messages vs multi-protocol)\n",
		st2.Elapsed.Seconds(), st2.Messages,
		100*float64(st2.Messages-st.Messages)/float64(st.Messages))
}
