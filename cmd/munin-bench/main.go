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
// SUN-3/60 cluster on 10 Mbps Ethernet); see EXPERIMENTS.md for how each
// table's shape compares with the published one.
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
	lazyRC := false
	switch *consistency {
	case "", "eager":
	case "lazy":
		lazyRC = true
	default:
		fatal(fmt.Errorf("unknown consistency %q (want eager or lazy)", *consistency))
	}
	scaleRounds = *rounds
	opts := bench.AppOpts{N: *n, Rows: *rows, Cols: *cols, Iters: *iters, Adaptive: *adaptive, Lazy: lazyRC, Transport: *transport}
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

func runTable(t string, opts bench.AppOpts) {
	switch t {
	case "1":
		r := bench.RunTable1()
		r.Format(tableOut)
		results["table1"] = r
	case "2":
		r, err := bench.RunTable2(model.Default())
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["table2"] = r
	case "3":
		r, err := bench.RunTable3(opts)
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["table3"] = r
	case "4":
		r, err := bench.RunTable4(opts)
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["table4"] = r
	case "5":
		r, err := bench.RunTable5(opts)
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["table5"] = r
	case "6":
		r, err := bench.RunTable6(bench.Table6Opts{AppOpts: opts})
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["table6"] = r
	case "6b":
		r, err := bench.RunTable6FalseSharing(bench.Table6Opts{})
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["table6b"] = r
	case "tsp":
		r, err := bench.RunTSP(opts)
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["tsp"] = r
	case "wire":
		wo := bench.WireOpts{Transport: opts.Transport}
		if len(opts.Procs) > 0 {
			wo.Procs = opts.Procs[len(opts.Procs)-1]
			if len(opts.Procs) > 1 {
				fmt.Fprintf(tableOut, "(wire table runs at one processor count; using %d)\n", wo.Procs)
			}
		}
		r, err := bench.RunWire(wo)
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["wire"] = r
	case "lazy":
		lo := bench.LazyOpts{N: opts.N, Rows: opts.Rows, Cols: opts.Cols, Iters: opts.Iters, Transport: opts.Transport}
		if len(opts.Procs) > 0 {
			lo.Procs = opts.Procs[len(opts.Procs)-1]
			if len(opts.Procs) > 1 {
				fmt.Fprintf(tableOut, "(lazy table runs at one processor count; using %d)\n", lo.Procs)
			}
		}
		r, err := bench.RunLazy(lo)
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["lazy"] = r
	case "scale":
		so := bench.ScaleOpts{Procs: opts.Procs, Rounds: scaleRounds}
		if opts.Transport != "" && opts.Transport != "sim" {
			fmt.Fprintln(tableOut, "(scale table sweeps virtual time; always runs on sim)")
		}
		r, err := bench.RunScale(so)
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["scale"] = r
	case "adaptive":
		ao := bench.AdaptiveOpts{N: opts.N, Rows: opts.Rows, Cols: opts.Cols, Iters: opts.Iters, Transport: opts.Transport}
		if len(opts.Procs) > 0 {
			ao.Procs = opts.Procs[len(opts.Procs)-1]
			if len(opts.Procs) > 1 {
				fmt.Fprintf(tableOut, "(adaptive table runs at one processor count; using %d)\n", ao.Procs)
			}
		}
		r, err := bench.RunAdaptive(ao)
		if err != nil {
			fatal(err)
		}
		r.Format(tableOut)
		results["adaptive"] = r
	}
}

func runAblation(a string) {
	var (
		r   bench.Ablation
		err error
	)
	switch a {
	case "A1":
		r, err = bench.RunAblationA1(bench.AblationOpts{})
	case "A2":
		r, err = bench.RunAblationA2(bench.AblationOpts{})
	case "A3":
		r, err = bench.RunAblationA3(bench.AblationOpts{})
	case "A4":
		r, err = bench.RunAblationA4(bench.AblationOpts{})
	case "A5":
		r, err = bench.RunAblationA5(bench.AblationOpts{})
	case "A6":
		r, err = bench.RunAblationA6(bench.AblationOpts{})
	}
	if err != nil {
		fatal(err)
	}
	r.Format(tableOut)
	results[a] = r
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "munin-bench:", err)
	os.Exit(1)
}
