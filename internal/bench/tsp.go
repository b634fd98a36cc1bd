package bench

import (
	"fmt"

	"munin/internal/apps"
	"munin/internal/mp"
)

// RunTSP compares the Munin and message-passing branch-and-bound TSP —
// an extra experiment beyond the paper's tables: the irregular,
// dynamically load-balanced workload class the regular grids do not
// cover. Both versions find the exact optimum; elapsed times are not
// expected to match as closely as Tables 3/5 because bound-propagation
// timing changes how much each version prunes.
func RunTSP(o AppOpts) (AppTable, error) {
	o = o.withDefaults()
	cities := 11
	ref := apps.TSPReference(cities)
	t := AppTable{Title: fmt.Sprintf("Extra: branch-and-bound TSP (sec), %d cities", cities)}
	for _, procs := range o.Procs {
		cfg := apps.TSPConfig{Procs: procs, Cities: cities, Model: o.Model}
		mu, err := runOnce(apps.NewTSP, cfg, o.runOpts(nil)...)
		if err != nil {
			return AppTable{}, fmt.Errorf("bench: munin tsp p=%d: %w", procs, err)
		}
		dm, err := mp.TSP(cfg)
		if err != nil {
			return AppTable{}, fmt.Errorf("bench: mp tsp p=%d: %w", procs, err)
		}
		row := appRow(procs, mu, dm, uint32(ref))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
