// Command munin-run executes one program on a Munin machine and prints
// its full statistics: total time, the root node's user/system split,
// network traffic by message kind, and the adaptive and lazy engines'
// activity.
//
// The programs are the four evaluation applications, sized by flags and
// checked against a sequential reference, and the small demos of the
// internal/apps registry, which check their own output (see -list).
// -trace prints every protocol message as it is delivered: timestamp,
// source → destination, message kind and size. -obs records structured
// protocol events (faults, fetches, invalidations, ownership transfers,
// interval closes) with cause links, exportable as JSON lines or as
// Chrome trace_event JSON that loads in chrome://tracing and Perfetto.
//
// Usage:
//
//	munin-run -list
//	munin-run -app matmul -procs 8
//	munin-run -app sor -procs 16 -rows 256 -iters 20
//	munin-run -app matmul -procs 8 -annotation conventional
//	munin-run -app sor -procs 4 -exact            # improved copyset algorithm (the live default)
//	munin-run -app tsp -procs 8 -annotation conventional -adaptive
//	                                              # mis-annotated + adaptive recovery
//	munin-run -app sor -procs 8 -profile          # hot-object table + latency percentiles
//	munin-run -app lock -procs 4 -trace           # every protocol message of a demo
//	munin-run -app lockheavy -procs 4 -rounds 4 -consistency lazy -batch -trace
//	munin-run -app pipeline -procs 4 -obs -chrome out.json
//	munin-run -app migratory -obs -jsonl events.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"munin"
	"munin/internal/apps"
	"munin/internal/network"
	"munin/internal/protocol"
	"munin/internal/vm"
	"munin/internal/wire"
)

// sizedApp is one evaluation application: built from the size flags and
// checked against its sequential reference.
type sizedApp struct {
	name, desc string
	build      func() (*apps.App, uint32, error)
}

func main() {
	var (
		app         = flag.String("app", "matmul", "program: matmul, sor, tsp, lockheavy or a demo (see -list)")
		list        = flag.Bool("list", false, "list the programs and exit")
		procs       = flag.Int("procs", 8, fmt.Sprintf("processor count (1-%d)", munin.MaxProcessors))
		n           = flag.Int("n", 400, "matrix dimension (matmul)")
		rows        = flag.Int("rows", 512, "grid rows (sor)")
		cols        = flag.Int("cols", 2048, "grid columns (sor)")
		iters       = flag.Int("iters", 100, "iterations (sor)")
		single      = flag.Bool("single", false, "apply the SingleObject optimization (matmul)")
		annot       = flag.String("annotation", "", "force one annotation on all shared data (conventional, write_shared, ...)")
		exact       = flag.Bool("exact", false, "use the improved home-directed copyset determination on sim (ablation A4; already the default for eager, non-adaptive runs on chan and mux; not with -adaptive)")
		cities      = flag.Int("cities", 10, "tour length (tsp)")
		adaptive    = flag.Bool("adaptive", false, "enable the adaptive protocol engine (profiles access patterns and switches protocols online; always on for the adaptive demos)")
		consistency = flag.String("consistency", "eager", "release-consistency engine: eager (release-time flush) or lazy (acquire-directed, internal/lrc)")
		rounds      = flag.Int("rounds", 12, "critical-section rounds (lockheavy)")
		batch       = flag.Bool("batch", false, "coalesce same-destination protocol messages into batch envelopes (fewer transport sends; see munin.WithBatching)")
		transport   = flag.String("transport", "sim", "transport: sim (deterministic virtual time), chan (concurrent goroutine-per-node) or mux (concurrent over multiplexed loopback sockets)")
		profile     = flag.Bool("profile", false, "enable per-run metrics and print the hot-object table and latency percentiles (munin.WithMetrics; charges nothing to the cost model)")
		top         = flag.Int("top", 10, "number of objects in the -profile table")
		trace       = flag.Bool("trace", false, "print every protocol message as it is delivered")
		obsFlag     = flag.Bool("obs", false, "record structured protocol events (faults, fetches, invalidations, ...) and print them as JSON lines after the run")
		chrome      = flag.String("chrome", "", "write the recorded events as Chrome trace_event JSON to this file (implies -obs; loads in Perfetto)")
		jsonl       = flag.String("jsonl", "", "write the recorded events as JSON lines to this file (implies -obs)")
	)
	flag.Parse()

	sized := []sizedApp{
		{"matmul", "the paper's Matrix Multiply (§4.1): read_only inputs, a result output (-n, -single)", func() (*apps.App, uint32, error) {
			a, err := apps.NewMatMul(apps.MatMulConfig{Procs: *procs, N: *n, Single: *single})
			return a, apps.MatMulReference(*n), err
		}},
		{"sor", "the paper's Successive Over-Relaxation (§4.2): one producer_consumer grid (-rows, -cols, -iters)", func() (*apps.App, uint32, error) {
			a, err := apps.NewSOR(apps.SORConfig{Procs: *procs, Rows: *rows, Cols: *cols, Iters: *iters, PhaseBarrier: apps.LiveTransport(*transport)})
			return a, apps.SORReference(*rows, *cols, *iters), err
		}},
		{"tsp", "branch-and-bound travelling salesman: a reduction bound and a lock-coupled work counter (-cities)", func() (*apps.App, uint32, error) {
			a, err := apps.NewTSP(apps.TSPConfig{Procs: *procs, Cities: *cities})
			return a, uint32(apps.TSPReference(*cities)), err
		}},
		{"lockheavy", "fine-grained lock-protected sharing in a ring of pairs, the lazy engine's motivating workload (-rounds)", func() (*apps.App, uint32, error) {
			cfg := apps.LockHeavyConfig{Procs: *procs, Rounds: *rounds}
			a, err := apps.NewLockHeavy(cfg)
			return a, apps.LockHeavyReference(cfg), err
		}},
	}

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, s := range sized {
			fmt.Fprintf(tw, "%s\t[application]\t%s\n", s.name, s.desc)
		}
		for _, d := range apps.Demos() {
			kind := fmt.Sprintf("demo, ≥%d procs", d.MinProcs)
			if d.Adaptive {
				kind += ", adaptive"
			}
			fmt.Fprintf(tw, "%s\t[%s]\t%s\n", d.Name, kind, d.Desc)
		}
		tw.Flush()
		return
	}

	cons, err := munin.ParseConsistency(*consistency)
	if err != nil {
		fatal(err)
	}
	var override *protocol.Annotation
	if *annot != "" {
		a, err := protocol.Parse(*annot)
		if err != nil {
			fatal(err)
		}
		override = &a
	}

	// A sized application has a sequential reference; a demo's own Check
	// already fails a wrong run.
	var (
		a      *apps.App
		ref    uint32
		hasRef bool
	)
	for _, s := range sized {
		if s.name == *app {
			a, ref, err = s.build()
			hasRef = true
		}
	}
	if !hasRef {
		demo, derr := apps.DemoByName(*app)
		if derr != nil {
			fatal(derr)
		}
		a, err = demo.New(apps.DemoConfig{Procs: *procs})
		*adaptive = *adaptive || demo.Adaptive
	}
	if err != nil {
		fatal(err)
	}

	opts := []munin.RunOption{munin.WithTransport(*transport), munin.WithConsistency(cons)}
	if override != nil {
		opts = append(opts, munin.WithOverride(*override))
	}
	if *adaptive {
		opts = append(opts, munin.WithAdaptive())
	}
	if *exact {
		opts = append(opts, munin.WithExactCopyset())
	}
	if *batch {
		opts = append(opts, munin.WithBatching())
	}
	if *profile {
		opts = append(opts, munin.WithMetrics())
	}
	if *trace {
		opts = append(opts, munin.WithTrace(func(env network.Envelope) {
			fmt.Printf("%12.3f ms  n%d -> n%d  %-16v %4d B\n",
				env.DeliveredAt.Milliseconds(), env.Src, env.Dst, env.Msg.Kind(), env.Bytes)
		}))
	}
	var sink *munin.TraceBuffer
	if *obsFlag || *chrome != "" || *jsonl != "" {
		sink = &munin.TraceBuffer{}
		opts = append(opts, munin.WithTracing(sink))
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
		fmt.Fprintf(tw, "batch envelopes\t%d\t\n", r.BatchEnvelopes)
	}
	fmt.Fprintf(tw, "bytes\t%d\t\n", r.Bytes)
	if *adaptive {
		fmt.Fprintf(tw, "adaptive switches\t%d\t\n", r.AdaptSwitches)
		final := r.FinalAnnotations()
		bases := make([]vm.Addr, 0, len(final))
		for base := range final {
			bases = append(bases, base)
		}
		sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
		for _, base := range bases {
			fmt.Fprintf(tw, "final annotation of %s\t%v\t\n", r.ObjectName(uint64(base)), final[base])
		}
	}
	if cons == munin.LazyRC {
		fmt.Fprintf(tw, "lrc intervals\t%d\t\n", r.LrcIntervals)
		fmt.Fprintf(tw, "lrc diff fetches\t%d\t\n", r.LrcDiffFetches)
		fmt.Fprintf(tw, "lrc records gced\t%d\t\n", r.LrcRecordsGCed)
	}
	match := ""
	if hasRef {
		match = " MATCH"
		if r.Check != ref {
			match = fmt.Sprintf(" MISMATCH (got %08x, sequential reference %08x)", r.Check, ref)
		}
	}
	fmt.Fprintf(tw, "result checksum\t%08x%s\t\n", r.Check, match)
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

	if sink != nil {
		if n := sink.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "munin-run: event ring overflow, oldest %d events dropped\n", n)
		}
		for _, out := range []struct {
			path, format string
			write        func(io.Writer) error
		}{{*chrome, "Chrome trace_event format", sink.WriteChrome}, {*jsonl, "JSON lines", sink.WriteJSONL}} {
			if out.path == "" {
				continue
			}
			if err := writeFile(out.path, out.write); err != nil {
				fatal(err)
			}
			fmt.Printf("\n%d events written to %s (%s)\n", len(sink.Events()), out.path, out.format)
		}
		if *chrome == "" && *jsonl == "" {
			fmt.Println("\nprotocol events:")
			if err := sink.WriteJSONL(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}

	// Exit non-zero on a result mismatch under the program's own
	// annotations; an override may legitimately perturb SOR's chaotic
	// relaxation (the Table 6 tests in internal/bench hold it).
	if hasRef && r.Check != ref && override == nil {
		os.Exit(1)
	}
}

// writeFile streams one exporter's output into a freshly created file.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "munin-run:", err)
	os.Exit(1)
}
