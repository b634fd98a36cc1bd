package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// Reproduction fidelity: the simulator's virtual times and message
// counts are deterministic, so the committed BENCH_*.json files are not
// a trajectory to stay near but the exact numbers the default path must
// keep producing. Each test below regenerates one file's table at the
// parameters it was written with and requires every field of every row
// to be equal. Regenerate a baseline only for an intended change:
//
//	munin-bench -table 6 -n 128 -rows 64 -cols 512 -iters 10 -json BENCH_baseline.json
//	munin-bench -table scale -procs 8,16,32,64 -json BENCH_scale.json

// loadBaseline decodes the table stored under key in a committed
// munin-bench -json file into the real bench type.
func loadBaseline(t *testing.T, path, key string, into any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	dec := json.NewDecoder(bytes.NewReader(doc[key]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("%s: table %q: %v", path, key, err)
	}
}

// requireSameRows reports every field of every row where a fresh run
// departs from the baseline, naming the row and the field.
func requireSameRows[R any](t *testing.T, label func(R) string, baseline, fresh []R) {
	t.Helper()
	if len(baseline) != len(fresh) {
		t.Fatalf("baseline has %d rows, fresh run %d", len(baseline), len(fresh))
	}
	show := func(v reflect.Value) string {
		b, _ := json.Marshal(v.Interface())
		return string(b)
	}
	for i := range fresh {
		b, f := reflect.ValueOf(baseline[i]), reflect.ValueOf(fresh[i])
		for j := 0; j < f.NumField(); j++ {
			if !reflect.DeepEqual(b.Field(j).Interface(), f.Field(j).Interface()) {
				t.Errorf("row %d (%s) %s: baseline %s, fresh run %s",
					i, label(fresh[i]), f.Type().Field(j).Name, show(b.Field(j)), show(f.Field(j)))
			}
		}
	}
}

// TestTable6MatchesBaseline pins the Table 6 eager numbers — per-row
// virtual times and message counts at 16 nodes — to BENCH_baseline.json
// bit for bit: every opt-in path (batching, lazy RC, adaptive, metrics)
// must leave the default path exactly where it was.
func TestTable6MatchesBaseline(t *testing.T) {
	var want Table6
	loadBaseline(t, "../../BENCH_baseline.json", "table6", &want)
	got, err := RunTable6(Table6Opts{AppOpts: AppOpts{N: 128, Rows: 64, Cols: 512, Iters: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Procs != want.Procs || got.Note != want.Note {
		t.Errorf("baseline is %d procs, note %q; fresh run %d procs, note %q", want.Procs, want.Note, got.Procs, got.Note)
	}
	requireSameRows(t, func(r Table6Row) string { return r.Name }, want.Rows, got.Rows)
}

// TestScaleMatchesBaseline pins the 8-64 node scaling sweep to
// BENCH_scale.json, and states the two properties the sweep exists to
// show on their own so they survive a regenerated baseline: every run
// reproduces its reference output, and past the prototype's size the
// lazy engine's lock-heavy traffic stays strictly below eager's.
func TestScaleMatchesBaseline(t *testing.T) {
	var want ScaleTable
	loadBaseline(t, "../../BENCH_scale.json", "scale", &want)
	got, err := RunScale(ScaleOpts{Procs: []int{8, 16, 32, 64}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Procs, want.Procs) || got.Rounds != want.Rounds {
		t.Errorf("baseline sweeps %v at %d rounds; fresh run %v at %d", want.Procs, want.Rounds, got.Procs, got.Rounds)
	}
	requireSameRows(t, func(r ScaleRow) string { return fmt.Sprintf("%s/%s@%d", r.App, r.Engine, r.Procs) }, want.Rows, got.Rows)
	requireSameRows(t, func(k ScaleKnee) string { return k.App + "/" + k.Engine }, want.Knees, got.Knees)

	eager := map[int]int{} // lockheavy eager: procs -> messages
	for _, r := range got.Rows {
		if !r.ChecksOK {
			t.Errorf("%s/%s at %d nodes: wrong result", r.App, r.Engine, r.Procs)
		}
		if r.App == "lockheavy" && r.Engine == "eager" {
			eager[r.Procs] = r.Messages
		}
	}
	for _, r := range got.Rows {
		if r.App == "lockheavy" && r.Engine == "lazy" && r.Procs >= 32 && r.Messages >= eager[r.Procs] {
			t.Errorf("lockheavy at %d nodes: lazy sent %d messages, eager %d — want lazy strictly below",
				r.Procs, r.Messages, eager[r.Procs])
		}
	}
}
