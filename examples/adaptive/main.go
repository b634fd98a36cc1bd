// Adaptive — the protocol engine the paper leaves as future work ("the
// runtime system could detect the access pattern at runtime", §6).
//
// A shared buffer is declared with NO annotation at all (munin.Adaptive)
// and the program changes personality halfway through: in phase 1 node 1
// produces values that nodes 2 and 3 consume; in phase 2 every node
// writes its own slice of the same pages and reads everyone else's
// (false sharing, all-to-all). No single Table 1 annotation fits both
// phases — producer_consumer aborts on the phase change, conventional
// ping-pongs page ownership, migratory serializes everything. The
// adaptive runtime profiles the access pattern as the program runs,
// switches the buffer to producer_consumer for phase 1, and heals the
// stable-sharing violations when phase 2 shifts the pattern.
//
// Run with:
//
//	go run ./examples/adaptive -procs 8 -rounds 8
//
// and compare against a static mis-annotation:
//
//	go run ./examples/adaptive -procs 8 -annotation conventional
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"munin"
	"munin/internal/apps"
	"munin/internal/protocol"
)

func main() {
	var (
		procs  = flag.Int("procs", 8, "processors (4-16)")
		rounds = flag.Int("rounds", 8, "rounds per phase")
		annot  = flag.String("annotation", "", "force a static annotation instead of adapting (conventional, write_shared, ...)")
	)
	flag.Parse()

	// The buffer is declared with no hint, and the run turns the engine
	// on, unless a static annotation was asked for.
	a := protocol.Adaptive
	var opts []munin.RunOption
	if *annot == "" {
		opts = append(opts, munin.WithAdaptive())
	} else {
		var err error
		if a, err = protocol.Parse(*annot); err != nil {
			log.Fatal("adaptive: ", err)
		}
	}
	cfg := apps.PipelineConfig{Procs: *procs, Rounds1: *rounds, Rounds2: *rounds, Override: &a}
	app, err := apps.NewPipeline(cfg)
	if err != nil {
		log.Fatal("adaptive: ", err)
	}
	r, err := app.Run(context.Background(), opts...)
	if err != nil {
		log.Fatal("adaptive: ", err)
	}
	want := apps.PipelineReference(cfg)
	status := "OK"
	if r.Check != want {
		status = fmt.Sprintf("MISMATCH (got %d, want %d)", r.Check, want)
	}
	mode := "adaptive (no hint: munin.Adaptive)"
	if *annot != "" {
		mode = "static " + a.String()
	}
	fmt.Printf("mode:     %s\n", mode)
	fmt.Printf("elapsed:  %.3f virtual s\n", r.Elapsed.Seconds())
	fmt.Printf("messages: %d\n", r.Messages)
	fmt.Printf("switches: %d\n", r.AdaptSwitches)
	fmt.Printf("result:   %s\n", status)
	if r.Check != want {
		os.Exit(1)
	}
}
