package apps

import (
	"context"
	"fmt"
	"testing"

	"munin"
)

// TestDemoRegistry runs every registry demo on every transport, at its
// smallest machine and at eight nodes, under each engine it allows (the
// adaptive demos need the adaptive engine, which excludes the lazy one).
// A demo's App.Check fails a wrong run, so every run must succeed; an
// adaptive demo must also commit at least one switch, since showing the
// switch is what it is for.
func TestDemoRegistry(t *testing.T) {
	for _, d := range Demos() {
		engines := []munin.Consistency{munin.EagerRC, munin.LazyRC}
		if d.Adaptive {
			engines = engines[:1]
		}
		for _, tr := range []string{"sim", "chan", "mux"} {
			for _, procs := range []int{d.MinProcs, 8} {
				for _, cons := range engines {
					d, tr, procs, cons := d, tr, procs, cons
					t.Run(fmt.Sprintf("%s/%s/%d/%v", d.Name, tr, procs, cons), func(t *testing.T) {
						app, err := d.New(DemoConfig{Procs: procs})
						if err != nil {
							t.Fatal(err)
						}
						opts := []munin.RunOption{munin.WithTransport(tr), munin.WithConsistency(cons)}
						if d.Adaptive {
							opts = append(opts, munin.WithAdaptive())
						}
						r, err := app.Run(context.Background(), opts...)
						if err != nil {
							t.Fatal(err)
						}
						if d.Adaptive && r.AdaptSwitches == 0 {
							t.Error("adaptive demo committed no switch")
						}
					})
				}
			}
		}
	}
}
