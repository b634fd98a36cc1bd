// Command munin-run executes one of the evaluation applications on the
// simulated Munin machine and prints its full statistics: total time, the
// root node's user/system split, network traffic by message kind, and the
// per-node protocol counters (misses, twins, flushes, updates).
//
// Usage:
//
//	munin-run -app matmul -procs 8
//	munin-run -app sor -procs 16 -rows 256 -iters 20
//	munin-run -app matmul -procs 8 -annotation conventional
//	munin-run -app sor -procs 4 -exact            # improved copyset algorithm (the live default)
//	munin-run -app tsp -procs 8 -annotation conventional -adaptive
//	                                              # mis-annotated + adaptive recovery
//	munin-run -app sor -procs 8 -profile          # hot-object table + latency percentiles
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"munin"
	"munin/internal/apps"
	"munin/internal/protocol"
	"munin/internal/wire"
)

func main() {
	var (
		app         = flag.String("app", "matmul", "application: matmul, sor, tsp or lockheavy")
		procs       = flag.Int("procs", 8, fmt.Sprintf("processor count (1-%d)", munin.MaxProcessors))
		n           = flag.Int("n", 400, "matrix dimension (matmul)")
		rows        = flag.Int("rows", 512, "grid rows (sor)")
		cols        = flag.Int("cols", 2048, "grid columns (sor)")
		iters       = flag.Int("iters", 100, "iterations (sor)")
		single      = flag.Bool("single", false, "apply the SingleObject optimization (matmul)")
		annot       = flag.String("annotation", "", "force one annotation on all shared data (conventional, write_shared, ...)")
		exact       = flag.Bool("exact", false, "use the improved home-directed copyset determination on sim (ablation A4; already the default for eager, non-adaptive runs on chan and mux; not with -adaptive)")
		cities      = flag.Int("cities", 10, "tour length (tsp)")
		adaptive    = flag.Bool("adaptive", false, "enable the adaptive protocol engine (profiles access patterns and switches protocols online)")
		consistency = flag.String("consistency", "eager", "release-consistency engine: eager (release-time flush) or lazy (acquire-directed, internal/lrc)")
		rounds      = flag.Int("rounds", 12, "critical-section rounds (lockheavy)")
		batch       = flag.Bool("batch", false, "coalesce same-destination protocol messages into batch envelopes (fewer transport sends; see munin.WithBatching)")
		transport   = flag.String("transport", "sim", "transport: sim (deterministic virtual time), chan (concurrent goroutine-per-node) or mux (concurrent over multiplexed loopback sockets)")
		profile     = flag.Bool("profile", false, "enable per-run metrics and print the hot-object table and latency percentiles (munin.WithMetrics; charges nothing to the cost model)")
		top         = flag.Int("top", 10, "number of objects in the -profile table")
	)
	flag.Parse()

	lazy := false
	switch *consistency {
	case "", "eager":
	case "lazy":
		lazy = true
	default:
		fatal(fmt.Errorf("unknown consistency %q (want eager or lazy)", *consistency))
	}

	var override *protocol.Annotation
	if *annot != "" {
		a, err := protocol.Parse(*annot)
		if err != nil {
			fatal(err)
		}
		override = &a
	}

	var (
		a   *apps.App
		ref uint32
		err error
	)
	switch *app {
	case "matmul":
		a, err = apps.NewMatMul(apps.MatMulConfig{Procs: *procs, N: *n, Single: *single, Override: override})
		ref = apps.MatMulReference(*n)
	case "sor":
		a, err = apps.NewSOR(apps.SORConfig{Procs: *procs, Rows: *rows, Cols: *cols, Iters: *iters, Override: override, PhaseBarrier: apps.LiveTransport(*transport)})
		ref = apps.SORReference(*rows, *cols, *iters)
	case "tsp":
		a, err = apps.NewTSP(apps.TSPConfig{Procs: *procs, Cities: *cities, Override: override, Adaptive: *adaptive})
		ref = uint32(apps.TSPReference(*cities))
	case "lockheavy":
		cfg := apps.LockHeavyConfig{Procs: *procs, Rounds: *rounds, Override: override}
		a, err = apps.NewLockHeavy(cfg)
		ref = apps.LockHeavyReference(cfg)
	default:
		fatal(fmt.Errorf("unknown app %q (want matmul, sor, tsp or lockheavy)", *app))
	}
	if err != nil {
		fatal(err)
	}
	opts := apps.RunOpts(*transport, override, *adaptive, *exact, lazy)
	if *batch {
		opts = append(opts, munin.WithBatching())
	}
	if *profile {
		opts = append(opts, munin.WithMetrics())
	}
	r, err := a.Run(context.Background(), opts...)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("app=%s procs=%d transport=%s consistency=%s\n\n", *app, *procs, *transport, *consistency)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "total time\t%.3f s\t\n", r.Elapsed.Seconds())
	fmt.Fprintf(tw, "root user time\t%.3f s\t\n", r.RootUser.Seconds())
	fmt.Fprintf(tw, "root system time\t%.3f s\t\n", r.RootSystem.Seconds())
	fmt.Fprintf(tw, "messages\t%d\t\n", r.Messages)
	if *batch {
		fmt.Fprintf(tw, "transport sends\t%d\t\n", r.Sends)
		fmt.Fprintf(tw, "batch envelopes\t%d\t\n", r.BatchedInto)
	}
	fmt.Fprintf(tw, "bytes\t%d\t\n", r.Bytes)
	if *adaptive {
		fmt.Fprintf(tw, "adaptive switches\t%d\t\n", r.AdaptSwitches)
	}
	if lazy {
		fmt.Fprintf(tw, "lrc intervals\t%d\t\n", r.LrcIntervals)
		fmt.Fprintf(tw, "lrc diff fetches\t%d\t\n", r.LrcDiffFetches)
		fmt.Fprintf(tw, "lrc records gced\t%d\t\n", r.LrcRecordsGCed)
	}
	match := "MATCH"
	if r.Check != ref {
		match = fmt.Sprintf("MISMATCH (got %08x, sequential reference %08x)", r.Check, ref)
	}
	fmt.Fprintf(tw, "result checksum\t%08x %s\t\n", r.Check, match)
	tw.Flush()

	fmt.Println("\nmessages by kind:")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, k := range wire.Kinds() {
		if c := r.PerKind[k]; c > 0 {
			fmt.Fprintf(tw, "  %v\t%d\t\n", k, c)
		}
	}
	tw.Flush()

	if *profile {
		unit := "virtual ns"
		if apps.LiveTransport(*transport) {
			unit = "wall ns"
		}
		fmt.Printf("\nlatency percentiles (%s):\n", unit)
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  op\tcount\tp50\tp99\tp999\tmax\t\n")
		ops := make([]string, 0, len(r.Latencies))
		for op := range r.Latencies {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			s := r.Latencies[op]
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%d\t\n", op, s.Count, s.P50, s.P99, s.P999, s.Max)
		}
		tw.Flush()

		prof := r.Profile()
		shown := len(prof)
		if shown > *top {
			shown = *top
		}
		fmt.Printf("\nhot objects (top %d of %d):\n", shown, len(prof))
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  object\treads\twrites\tinval\tmigr\tfetch\tsharers\tper-node\t\n")
		for _, o := range prof[:shown] {
			name := r.ObjectName(o.Addr)
			if name == "" {
				name = fmt.Sprintf("%#x", o.Addr)
			}
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%d\t%d\t%v\t\n",
				name, o.Reads, o.Writes, o.Invalidations, o.Migrations, o.Fetches, o.Sharers(), o.PerNode)
		}
		tw.Flush()
	}
	// Exit non-zero on a result mismatch under the program's own
	// annotations; overrides may legitimately perturb chaotic relaxation
	// (see EXPERIMENTS.md on Table 6).
	if r.Check != ref && override == nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "munin-run:", err)
	os.Exit(1)
}
