package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"munin/internal/apps"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSONMatches is the drift check: BENCHMARK.json must
// declare exactly the workloads and metrics the code emits, with the
// same units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, b.Workloads[i].Name, w.name)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name, or why is not one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	check := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, g, def)
			}
			if !name.MatchString(def.name) || !unit.MatchString(def.unit) {
				t.Errorf("%s: %q (%q) is not a valid name and unit", kind, def.name, def.unit)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != def.bound) {
				t.Errorf("%s: %s: bound in BENCHMARK.json does not match %v", kind, def.name, def.bound)
			}
			if bounded && (def.bound <= 0 || def.bound > 0.25 || def.bound > endToEnd[0].bound) {
				t.Errorf("%s: bound %v outside (0, 0.25] or above setup_s's", def.name, def.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" {
		t.Error("setup_s must lead the end-to-end metrics")
	}
}

// everyWorkload lists the per-layer metrics that apply to every
// workload; the rest belong to an engine, a transport or an operation
// some programs never perform.
func everyWorkload(name string) bool {
	for _, p := range []string{"munin.", "wire.", "diffenc.", "obs.", "apps.seq_s", "core.app_share",
		"core.barrier_p50_us", "core.barrier_share", "core.fault_p50_us", "core.fault_share"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return strings.HasPrefix(name, "rt.") && name != "rt.cpu_share_est" ||
		strings.HasSuffix(name, "_msgs_share")
}

// TestEveryWorkloadEmitsItsMetrics runs both modes of every workload at
// the quick sizes: the result line carries exactly the declared names,
// every metric that applies to a workload is measured, nothing
// undeclared is, and every declared metric is measured by some workload.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	known := make(map[string]bool)
	for _, def := range perLayer {
		known[def.name] = true
	}
	seen := make(map[string]bool)
	tr := newTracer()
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		e2e, err := w.measureEndToEnd(true, 0)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := w.measureLayers(true, 0.2, 1, tr, dir)
		if err != nil {
			t.Fatal(err)
		}
		wr := &workloadReport{EndToEnd: e2e.metrics, PerLayer: layers.metrics}
		wr.add(e2e.tally)
		wr.add(layers.tally)
		if wr.Failed != 0 {
			t.Errorf("%s: %d of %d runs failed: %v", w.name, wr.Failed, wr.Attempted, wr.Errors)
		}
		if line := wr.driverLine(true, false); !line.Correct || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: timed result line %+v does not carry every end-to-end metric", w.name, line)
		}
		for _, def := range endToEnd {
			if s := e2e.metrics[def.name]; s.Value <= 0 || s.Unit != def.unit {
				t.Errorf("%s: %s = %+v", w.name, def.name, s)
			}
		}
		if line := wr.driverLine(false, true); len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: traced result line carries %d metrics, want %d", w.name, len(line.Metrics), len(perLayer))
		}
		for n := range layers.metrics {
			seen[n] = true
			if !known[n] {
				t.Errorf("%s: emitted undeclared metric %s", w.name, n)
			}
		}
		for _, def := range perLayer {
			if _, ok := layers.metrics[def.name]; !ok && everyWorkload(def.name) && !strings.HasSuffix(def.name, "_p99_us") {
				t.Errorf("%s: %s not measured", w.name, def.name)
			}
		}
	}
	for _, def := range perLayer {
		// A p99 needs 1000 samples; the quick SOR has 51 barrier waits.
		if !seen[def.name] && def.name != "core.barrier_p99_us" {
			t.Errorf("no workload measured %s", def.name)
		}
	}
	if err := tr.write(dir + "/spans.json"); err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.spans {
		if s.EndNS < s.StartNS || s.SelfNS < 0 {
			t.Errorf("span %+v: negative duration or self time", s)
		}
	}
}

// TestWrongReferenceIsAFailure gives a workload a deliberately wrong
// reference checksum: every run must count in fail_share and the result
// must not read as correct.
func TestWrongReferenceIsAFailure(t *testing.T) {
	w := workloads[0]
	build := w.build
	w.build = func(quick bool) (*apps.App, func() uint32, int, error) {
		app, _, ops, err := build(quick)
		return app, func() uint32 { return 0xdeadbeef }, ops, err
	}
	r, err := w.measureEndToEnd(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	wr := &workloadReport{EndToEnd: r.metrics}
	wr.add(r.tally)
	if wr.Attempted == 0 || wr.Failed != wr.Attempted || wr.FailShare != 1 {
		t.Errorf("attempted %d, failed %d, fail_share %v; want every run failed", wr.Attempted, wr.Failed, wr.FailShare)
	}
	if wr.driverLine(true, false).Correct {
		t.Error("a run with a wrong checksum reads as correct")
	}
	if len(wr.Errors) == 0 || !strings.Contains(wr.Errors[0], "sequential reference") {
		t.Errorf("errors %q do not quote the mismatch", wr.Errors)
	}
}

// TestSimRepsBitIdentical: on the simulator every rep must produce the
// same virtual time, messages and bytes.
func TestSimRepsBitIdentical(t *testing.T) {
	w, err := findWorkload("lockheavy.sim")
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.measureEndToEnd(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Fatalf("failed runs: %v", r.Errors)
	}
	for n := range exactOnSim {
		if s := r.metrics[n]; s.N < 2 || s.Min != s.Max || s.Value <= 0 {
			t.Errorf("%s not identical across reps: %+v", n, s)
		}
	}
}

// TestCompareVerdicts checks -compare's three verdicts and its exit code.
func TestCompareVerdicts(t *testing.T) {
	mk := func(runS, spreadShare, failShare float64) *report {
		e2e := make(map[string]summary)
		for _, def := range endToEnd {
			e2e[def.name] = point(1)
		}
		e2e["run_s"] = summary{Value: runS, Unit: "s", N: 9, Min: runS, Q1: runS, Q3: runS * (1 + spreadShare), Max: runS * 2}
		return &report{Workloads: map[string]*workloadReport{"sor.chan": {FailShare: failShare, EndToEnd: e2e}}}
	}
	for _, c := range []struct {
		name string
		a, b *report
		want string
		code int
	}{
		{"same", mk(1, 0.01, 0), mk(1.05, 0.01, 0), "ok", 0},
		{"slower", mk(1, 0.01, 0), mk(1.4, 0.01, 0), "regressed", 1},
		{"noisy", mk(1, 0.3, 0), mk(1.4, 0.01, 0), "unresolved", 0},
		{"failing", mk(1, 0.01, 0), mk(1, 0.01, 0.1), "regressed", 1},
	} {
		var out bytes.Buffer
		if code := compareReports(c.a, c.b, &out); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with a %q row:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}

// TestCompareDirectories: a side may be a directory of reports, one per
// process; its value is the median over them, so one window measured in
// a slow phase of the machine does not make a regression.
func TestCompareDirectories(t *testing.T) {
	write := func(runs ...float64) string {
		dir := t.TempDir()
		for i, v := range runs {
			e2e := make(map[string]summary)
			for _, def := range endToEnd {
				e2e[def.name] = point(1)
			}
			e2e["run_s"] = point(v)
			wr := &workloadReport{EndToEnd: e2e}
			wr.add(tally{Attempted: 10})
			data, err := json.Marshal(&report{Workloads: map[string]*workloadReport{"sor.chan": wr}})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%d.json", i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	a := write(1.00, 1.02, 0.98, 1.01, 0.99)
	var out bytes.Buffer
	if code := compareFiles(a, write(1.01, 1.45, 0.99, 1.02, 1.00), &out); code != 0 {
		t.Errorf("one slow window of five reads as a regression:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(a, write(1.31, 1.45, 1.29, 1.32, 1.30), &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("five slow windows of five do not read as a regression (exit %d):\n%s", code, out.String())
	}
}
