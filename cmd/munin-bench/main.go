// Command munin-bench regenerates the evaluation tables of
// "Implementation and Performance of Munin" (SOSP '91) and the ablation
// studies described in DESIGN.md.
//
// Usage:
//
//	munin-bench -table all                 # every table
//	munin-bench -table 3                   # Matrix Multiply vs message passing
//	munin-bench -table 6b                  # Table 6 in the false-sharing regime
//	munin-bench -table tsp                 # the extra branch-and-bound workload
//	munin-bench -table adaptive            # adaptive engine vs static annotations
//	munin-bench -ablation all              # A1–A6
//	munin-bench -table 5 -procs 1,4,16     # custom processor sweep
//	munin-bench -table 3 -n 200            # smaller matrix
//	munin-bench -table all -json out.json  # machine-readable results
//	munin-bench -table 3 -adaptive         # run the apps with the adaptive engine on
//	munin-bench -table lazy                # eager vs lazy release consistency
//	munin-bench -table wire                # batched vs unbatched transport sends
//	munin-bench -table 5 -consistency lazy # run the apps under the lazy engine
//
// Times are virtual seconds from the calibrated cost model (a 1991-era
// SUN-3/60 cluster on 10 Mbps Ethernet). DESIGN.md's evaluation map names
// the driver behind each paper table, and the internal/bench table tests
// assert each one's published shape.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"munin"
	"munin/internal/bench"
	"munin/internal/model"
)

// results collects every table run this invocation for -json output.
var results = map[string]any{}

// tableOut receives the formatted tables: stdout normally, stderr when
// the JSON goes to stdout (so `-json -` stays machine-parseable).
var tableOut io.Writer = os.Stdout

// scaleRounds is -rounds, consumed by the scale table only.
var scaleRounds int

func main() {
	var (
		table       = flag.String("table", "", "table to regenerate: 1, 2, 3, 4, 5, 6, 6b, tsp, adaptive, lazy, wire, scale or all")
		ablation    = flag.String("ablation", "", "ablation to run: A1-A6 or all")
		procs       = flag.String("procs", "", "comma-separated processor counts for tables 3-5 (default 1,2,4,8,16)")
		n           = flag.Int("n", 0, "matrix dimension for tables 3/4/6 (default 400)")
		rows        = flag.Int("rows", 0, "SOR grid rows (default 512)")
		cols        = flag.Int("cols", 0, "SOR grid columns (default 2048)")
		iters       = flag.Int("iters", 0, "SOR iterations (default 100)")
		rounds      = flag.Int("rounds", 0, "critical-section / per-phase rounds for the scale table (default 3)")
		adaptive    = flag.Bool("adaptive", false, "run the application tables with the adaptive protocol engine enabled")
		consistency = flag.String("consistency", "eager", "release-consistency engine for the application tables: eager or lazy")
		transport   = flag.String("transport", "sim", "transport for the Munin runs: sim (virtual time), chan or mux (real concurrency, wall clock)")
		jsonOut     = flag.String("json", "", "also write the collected results as JSON to this file (\"-\" for stdout)")
	)
	flag.Parse()
	if *table == "" && *ablation == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *jsonOut == "-" {
		tableOut = os.Stderr
	}
	cons, err := munin.ParseConsistency(*consistency)
	if err != nil {
		fatal(err)
	}
	scaleRounds = *rounds
	opts := bench.AppOpts{N: *n, Rows: *rows, Cols: *cols, Iters: *iters, Adaptive: *adaptive, Lazy: cons == munin.LazyRC, Transport: *transport}
	if *procs != "" {
		ps, err := parseProcs(*procs)
		if err != nil {
			fatal(err)
		}
		opts.Procs = ps
	}

	if *table != "" {
		for _, t := range splitList(*table, []string{"1", "2", "3", "4", "5", "6", "6b", "tsp", "adaptive", "lazy", "wire", "scale"}) {
			runTable(t, opts)
			fmt.Fprintln(tableOut)
		}
	}
	if *ablation != "" {
		for _, a := range splitList(*ablation, []string{"A1", "A2", "A3", "A4", "A5", "A6"}) {
			runAblation(a)
			fmt.Fprintln(tableOut)
		}
	}
	if *jsonOut != "" {
		writeJSON(*jsonOut)
	}
}

// writeJSON emits every collected result keyed by table/ablation name, so
// the perf trajectory can be tracked across commits (BENCH_*.json).
func writeJSON(path string) {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if path == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fatal(err)
	}
}

// splitList expands "all" and validates entries against the known set.
func splitList(arg string, all []string) []string {
	if strings.EqualFold(arg, "all") {
		return all
	}
	var out []string
	for _, s := range strings.Split(arg, ",") {
		s = strings.TrimSpace(s)
		found := false
		for _, k := range all {
			if strings.EqualFold(s, k) {
				out = append(out, k)
				found = true
				break
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown selection %q (valid: %s, all)", s, strings.Join(all, ", ")))
		}
	}
	return out
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 || v > munin.MaxProcessors {
			return nil, fmt.Errorf("bad processor count %q (want 1-%d)", f, munin.MaxProcessors)
		}
		out = append(out, v)
	}
	return out, nil
}

// runTable regenerates one table, prints it and records it for -json
// (under "table"+t for the paper's numbered tables).
func runTable(t string, opts bench.AppOpts) {
	var (
		r   interface{ Format(io.Writer) }
		err error
	)
	switch t {
	case "1":
		r = bench.RunTable1()
	case "2":
		r, err = bench.RunTable2(model.Default())
	case "3":
		r, err = bench.RunTable3(opts)
	case "4":
		r, err = bench.RunTable4(opts)
	case "5":
		r, err = bench.RunTable5(opts)
	case "6":
		r, err = bench.RunTable6(bench.Table6Opts{AppOpts: opts})
	case "6b":
		r, err = bench.RunTable6FalseSharing(bench.Table6Opts{})
	case "tsp":
		r, err = bench.RunTSP(opts)
	case "wire":
		r, err = bench.RunWire(bench.WireOpts{Procs: oneProcs(t, opts.Procs), Transport: opts.Transport})
	case "lazy":
		r, err = bench.RunLazy(bench.LazyOpts{Procs: oneProcs(t, opts.Procs),
			N: opts.N, Rows: opts.Rows, Cols: opts.Cols, Iters: opts.Iters, Transport: opts.Transport})
	case "scale":
		if opts.Transport != "" && opts.Transport != "sim" {
			fmt.Fprintln(tableOut, "(scale table sweeps virtual time; always runs on sim)")
		}
		r, err = bench.RunScale(bench.ScaleOpts{Procs: opts.Procs, Rounds: scaleRounds})
	case "adaptive":
		r, err = bench.RunAdaptive(bench.AdaptiveOpts{Procs: oneProcs(t, opts.Procs),
			N: opts.N, Rows: opts.Rows, Cols: opts.Cols, Iters: opts.Iters, Transport: opts.Transport})
	}
	if t[0] >= '0' && t[0] <= '9' {
		t = "table" + t
	}
	emit(t, r, err)
}

// oneProcs picks the processor count of a table that runs at one size:
// the last of -procs, or 0 for the table's default.
func oneProcs(table string, procs []int) int {
	if len(procs) == 0 {
		return 0
	}
	p := procs[len(procs)-1]
	if len(procs) > 1 {
		fmt.Fprintf(tableOut, "(%s table runs at one processor count; using %d)\n", table, p)
	}
	return p
}

func runAblation(a string) {
	run := map[string]func(bench.AblationOpts) (bench.Ablation, error){
		"A1": bench.RunAblationA1, "A2": bench.RunAblationA2, "A3": bench.RunAblationA3,
		"A4": bench.RunAblationA4, "A5": bench.RunAblationA5, "A6": bench.RunAblationA6,
	}[a]
	r, err := run(bench.AblationOpts{})
	emit(a, r, err)
}

// emit prints one result and records it under key for -json.
func emit(key string, r interface{ Format(io.Writer) }, err error) {
	if err != nil {
		fatal(err)
	}
	r.Format(tableOut)
	results[key] = r
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "munin-bench:", err)
	os.Exit(1)
}
