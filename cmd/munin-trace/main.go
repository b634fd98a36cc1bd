// Command munin-trace runs a small Munin workload with message tracing
// enabled and prints every protocol message as it is delivered: virtual
// timestamp, source → destination, message kind and size. It makes the
// consistency protocols' wire behaviour directly observable — which node
// pages data in from where, when the delayed update queue flushes, how a
// lock request travels to the distributed queue's tail.
//
// The workloads come from the shared registry in internal/apps (see
// -list), so the tracer, the benches and the tests all run the same
// programs. With -obs the run also records structured protocol events
// (faults, fetches, invalidations, ownership transfers, interval closes)
// with cause links, exportable as JSON lines or as Chrome trace_event
// JSON that loads in chrome://tracing and Perfetto.
//
// Usage:
//
//	munin-trace -list
//	munin-trace -workload lock -procs 4
//	munin-trace -workload lockheavy -procs 4 -consistency lazy -batch
//	munin-trace -workload pipeline -procs 4 -obs -chrome out.json
//	munin-trace -workload migratory -obs -jsonl events.jsonl
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
	"munin/internal/vm"
)

func main() {
	var (
		workload    = flag.String("workload", "lock", "workload from the registry (see -list)")
		list        = flag.Bool("list", false, "list the workload registry and exit")
		procs       = flag.Int("procs", 4, fmt.Sprintf("processor count (2-%d; pipeline needs 4)", munin.MaxProcessors))
		batch       = flag.Bool("batch", false, "coalesce same-destination protocol messages into batch envelopes (they appear in the trace as one 'batch' delivery)")
		consistency = flag.String("consistency", "eager", "release-consistency engine: eager or lazy (the lazy engine's acquire-with-notices grants, diff fetches and GC broadcasts appear in the trace)")
		obsFlag     = flag.Bool("obs", false, "record structured protocol events (faults, fetches, invalidations, ...) and print them as JSON lines after the run")
		chrome      = flag.String("chrome", "", "write the recorded events as Chrome trace_event JSON to this file (implies -obs; loads in Perfetto)")
		jsonl       = flag.String("jsonl", "", "write the recorded events as JSON lines to this file (implies -obs)")
		quiet       = flag.Bool("quiet", false, "suppress the per-message wire trace (useful with -obs on larger runs)")
	)
	flag.Parse()

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, d := range apps.Demos() {
			engine := "eager/lazy"
			if d.Adaptive {
				engine = "adaptive"
			}
			fmt.Fprintf(tw, "%s\t[%s, ≥%d procs]\t%s\t\n", d.Name, engine, d.MinProcs, d.Desc)
		}
		tw.Flush()
		return
	}

	demo, err := apps.DemoByName(*workload)
	if err != nil {
		fatal(err)
	}
	cons, err := munin.ParseConsistency(*consistency)
	if err != nil {
		fatal(err)
	}
	if demo.Adaptive && cons == munin.LazyRC {
		fatal(fmt.Errorf("the %s workload needs the adaptive engine, which does not run under the lazy engine (the engines are mutually exclusive)", demo.Name))
	}
	if *procs < demo.MinProcs || *procs > munin.MaxProcessors {
		fatal(fmt.Errorf("procs %d outside %d-%d for workload %s", *procs, demo.MinProcs, munin.MaxProcessors, demo.Name))
	}

	app, err := demo.New(apps.DemoConfig{Procs: *procs})
	if err != nil {
		fatal(err)
	}

	opts := []munin.RunOption{munin.WithConsistency(cons)}
	if demo.Adaptive {
		opts = append(opts, munin.WithAdaptive())
	}
	if *batch {
		opts = append(opts, munin.WithBatching())
	}
	if !*quiet {
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

	r, err := app.Run(context.Background(), opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("-- check: %08x ok\n", r.Check)
	if demo.Adaptive {
		fmt.Printf("-- %d adaptive switches committed\n", r.AdaptSwitches)
		final := r.FinalAnnotations()
		bases := make([]vm.Addr, 0, len(final))
		for base := range final {
			bases = append(bases, base)
		}
		sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
		for _, base := range bases {
			fmt.Printf("-- final annotation of %#x: %v\n", base, final[base])
		}
	}

	if sink != nil {
		if n := sink.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "munin-trace: event ring overflow, oldest %d events dropped\n", n)
		}
		if *chrome != "" {
			if err := writeFile(*chrome, sink.WriteChrome); err != nil {
				fatal(err)
			}
			fmt.Printf("-- %d events written to %s (Chrome trace_event format)\n", len(sink.Events()), *chrome)
		}
		if *jsonl != "" {
			if err := writeFile(*jsonl, sink.WriteJSONL); err != nil {
				fatal(err)
			}
			fmt.Printf("-- %d events written to %s (JSON lines)\n", len(sink.Events()), *jsonl)
		}
		if *chrome == "" && *jsonl == "" {
			if err := sink.WriteJSONL(os.Stdout); err != nil {
				fatal(err)
			}
		}
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
	fmt.Fprintln(os.Stderr, "munin-trace:", err)
	os.Exit(1)
}
