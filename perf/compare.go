package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"munin"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// readSide reads one side of a comparison: a report file, or a directory
// of them — one per process, as many seeds of bash perf/run.sh -out write —
// merged so that each metric's value is the median over the processes
// and its quartiles are theirs. One window is at the mercy of a slow
// phase of the machine; the median of ten is what the driver judges too.
func readSide(path string) (*report, error) {
	paths := []string{path}
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil || len(paths) == 0 {
			return nil, fmt.Errorf("%s: no report files", path)
		}
	}
	merged := &report{Workloads: make(map[string]*workloadReport)}
	values := make(map[string]map[string][]float64)
	for i, p := range paths {
		r, err := readReport(p)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			merged.Env = r.Env
		}
		for name, wr := range r.Workloads {
			m := merged.Workloads[name]
			if m == nil {
				m = &workloadReport{EndToEnd: make(map[string]summary)}
				merged.Workloads[name] = m
				values[name] = make(map[string][]float64)
			}
			m.add(wr.tally)
			for metric, s := range wr.EndToEnd {
				m.EndToEnd[metric] = s
				values[name][metric] = append(values[name][metric], s.Value)
			}
		}
	}
	for name, metrics := range values {
		for metric, vs := range metrics {
			if len(vs) > 1 {
				merged.Workloads[name].EndToEnd[metric] = summarize(vs)
			}
		}
	}
	return merged, nil
}

// spread is a metric's spread on one side: the distance between its
// quartiles as a share of its value — over the processes of a merged
// side, over the runs of a single report.
func spread(s summary) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

// verdict judges metric b against a. A metric is regressed when b's
// value is worse than a's by more than the bound; when either side's
// own spread is wider than the bound the runs cannot tell, and it is
// unresolved rather than unchanged.
func verdict(def metricDef, bound float64, a, b summary) (delta float64, status string) {
	if a.Value != 0 {
		delta = (b.Value - a.Value) / a.Value
	} else if b.Value != 0 {
		delta = 1
	}
	worse := delta
	if def.better == "higher" {
		worse = -delta
	}
	switch {
	case bound > 0 && max(spread(a), spread(b)) > bound:
		return delta, "unresolved"
	case worse > bound:
		return delta, "regressed"
	}
	return delta, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both values,
// the delta, the bound and the verdict, and returns 1 on any regressed
// metric or any higher fail_share.
func compareFiles(pathA, pathB string, out io.Writer) int {
	a, err := readSide(pathA)
	if err == nil {
		var b *report
		if b, err = readSide(pathB); err == nil {
			return compareReports(a, b, out)
		}
	}
	fmt.Fprintln(os.Stderr, "perf:", err)
	return 2
}

func compareReports(a, b *report, out io.Writer) int {
	if a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		fmt.Fprintf(out, "# warning: GOMAXPROCS %d vs %d; the numbers do not compare\n", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	}
	defs := append(append([]metricDef(nil), endToEnd...), metricDef{"virtual_s", "s", "lower", 0})
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(out, "%-15s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		if wb == nil {
			fmt.Fprintf(out, "%-15s missing from B\n", n)
			code = 1
			continue
		}
		status := "ok"
		if wb.FailShare > wa.FailShare {
			status, code = "regressed", 1
		}
		fmt.Fprintf(out, "%-15s %-20s %14.6g %14.6g %9s %7s  %s\n", n, "fail_share", wa.FailShare, wb.FailShare, "", "any", status)
		w, _ := findWorkload(n)
		sim := w != nil && w.transport == munin.TransportSim
		for _, def := range defs {
			sa, okA := wa.EndToEnd[def.name]
			sb, okB := wb.EndToEnd[def.name]
			if !okA && !okB {
				continue
			}
			bound := def.bound
			if sim && exactOnSim[def.name] {
				bound = 0
			}
			delta, status := verdict(def, bound, sa, sb)
			if okA != okB {
				status = "regressed" // a metric that stopped (or started) being measured
			}
			if status == "regressed" {
				code = 1
			}
			fmt.Fprintf(out, "%-15s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				n, def.name, sa.Value, sb.Value, 100*delta, 100*bound, status)
		}
	}
	return code
}
