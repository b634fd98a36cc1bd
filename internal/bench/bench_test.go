package bench

// The tests in this file assert the shapes the paper's evaluation argues
// from — who wins, by roughly what factor, where the breakdowns grow —
// without pinning absolute virtual-time numbers (the cost model, not 1991
// hardware, sets those).

import (
	"math"
	"strings"
	"testing"

	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/sim"
)

func TestTable1MatchesPaper(t *testing.T) {
	tbl := RunTable1()
	// The published rows, column order I R D FO M S Fl W (Table 1).
	want := map[string]string{
		"read_only":         "N Y - - - - - N",
		"migratory":         "Y N - N N - N Y",
		"write_shared":      "N Y Y N Y N N Y",
		"producer_consumer": "N Y Y N Y Y N Y",
		"reduction":         "N Y N Y N - N Y",
		"result":            "N Y Y Y Y - Y Y",
		"conventional":      "Y Y N N N - N Y",
	}
	seen := map[string]bool{}
	for _, r := range tbl.Rows {
		name := r.Annotation.String()
		if r.Extension {
			if want[name] != "" {
				t.Errorf("%s flagged as extension but is a Table 1 row", name)
			}
			continue
		}
		row := strings.Join(r.Values[:], " ")
		if row != want[name] {
			t.Errorf("%s row = %q, want %q", name, row, want[name])
		}
		seen[name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("missing Table 1 row %s", name)
		}
	}
	if ext := len(protocol.Extensions()); len(tbl.Rows) != len(want)+ext {
		t.Errorf("table has %d rows, want %d published + %d extensions", len(tbl.Rows), len(want), ext)
	}
}

func TestTable2Shapes(t *testing.T) {
	tbl, err := RunTable2(model.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 3 {
		t.Fatalf("got %d columns, want 3", len(tbl.Columns))
	}
	one, all, alt := tbl.Columns[0], tbl.Columns[1], tbl.Columns[2]

	// Fault handling and the twin copy do not depend on the pattern.
	if one.HandleFault != all.HandleFault || all.HandleFault != alt.HandleFault {
		t.Errorf("HandleFault varies across patterns: %v %v %v",
			one.HandleFault, all.HandleFault, alt.HandleFault)
	}
	if one.CopyObject != all.CopyObject || all.CopyObject != alt.CopyObject {
		t.Errorf("CopyObject varies across patterns: %v %v %v",
			one.CopyObject, all.CopyObject, alt.CopyObject)
	}

	// Encode, transmit and decode grow with the number of changed words;
	// totals order one-word < all-words < alternate-words, with
	// alternate words the worst case for the run-length encoding (§3.3).
	if !(one.Encode < all.Encode && all.Encode < alt.Encode) {
		t.Errorf("encode order wrong: %v %v %v", one.Encode, all.Encode, alt.Encode)
	}
	if !(one.Transmit < all.Transmit && all.Transmit < alt.Transmit) {
		t.Errorf("transmit order wrong: %v %v %v", one.Transmit, all.Transmit, alt.Transmit)
	}
	if !(one.Decode < all.Decode && all.Decode < alt.Decode) {
		t.Errorf("decode order wrong: %v %v %v", one.Decode, all.Decode, alt.Decode)
	}
	if !(one.Total < all.Total && all.Total < alt.Total) {
		t.Errorf("total order wrong: %v %v %v", one.Total, all.Total, alt.Total)
	}

	// The alternate-words diff is bigger than the full object: maximum
	// number of minimum-length runs.
	if alt.DiffBytes <= all.DiffBytes {
		t.Errorf("alternate diff %d B not worse than all-words %d B", alt.DiffBytes, all.DiffBytes)
	}
	if alt.DiffBytes <= Table2ObjectBytes {
		t.Errorf("alternate diff %d B not larger than the object", alt.DiffBytes)
	}
	// One changed word encodes to a few bytes.
	if one.DiffBytes > 64 {
		t.Errorf("one-word diff = %d B", one.DiffBytes)
	}
	// Changed-word counts are exactly the pattern's.
	if one.ChangedWords != 1 || all.ChangedWords != Table2ObjectBytes/4 || alt.ChangedWords != Table2ObjectBytes/8 {
		t.Errorf("changed words = %d/%d/%d", one.ChangedWords, all.ChangedWords, alt.ChangedWords)
	}

	// Totals are millisecond-scale, as in the paper.
	for _, c := range tbl.Columns {
		if c.Total < sim.Millisecond || c.Total > 100*sim.Millisecond {
			t.Errorf("%v total %v outside millisecond scale", c.Pattern, c.Total)
		}
	}

	// The live-system measurement tracks the component model: it adds
	// only the pieces Table 2 does not break out (directory lookups, the
	// copyset determination round, lock handling), a few milliseconds.
	for _, c := range tbl.Columns {
		extra := c.MeasuredTotal - c.Total
		if extra < 0 || extra > 6*sim.Millisecond {
			t.Errorf("%v: measured %v vs model %v (extra %v)", c.Pattern, c.MeasuredTotal, c.Total, extra)
		}
		if c.MeasuredWrite < c.HandleFault {
			t.Errorf("%v: measured write %v below fault cost %v", c.Pattern, c.MeasuredWrite, c.HandleFault)
		}
	}
}

// appOpts shrinks nothing: the paper-sized runs complete in seconds of
// wall time on the deterministic simulator.
func fullSweep() AppOpts { return AppOpts{} }

func TestTable3MatrixMultiplyWithinTenPercent(t *testing.T) {
	tbl, err := RunTable3(fullSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(DefaultProcs) {
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if !r.ChecksOK {
			t.Errorf("p=%d: checksums disagree with the sequential reference", r.Procs)
		}
		if math.Abs(r.DiffPct) > 10 {
			t.Errorf("p=%d: Munin differs from message passing by %.1f%%, paper claims <=10%%", r.Procs, r.DiffPct)
		}
	}
	// Both versions scale: 16 processors beat 1 substantially.
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if last.Munin*8 > first.Munin || last.DM*8 > first.DM {
		t.Errorf("no speedup: p1 %v -> p16 %v (Munin), %v -> %v (DM)",
			first.Munin, last.Munin, first.DM, last.DM)
	}
	// System time grows with processors, user time shrinks (Table 3).
	if last.System <= first.System {
		t.Errorf("system time did not grow: %v -> %v", first.System, last.System)
	}
	if last.User >= first.User {
		t.Errorf("user time did not shrink: %v -> %v", first.User, last.User)
	}
}

func TestTable4OptimizationImproves(t *testing.T) {
	t3, err := RunTable3(fullSweep())
	if err != nil {
		t.Fatal(err)
	}
	t4, err := RunTable4(fullSweep())
	if err != nil {
		t.Fatal(err)
	}
	for i := range t4.Rows {
		r3, r4 := t3.Rows[i], t4.Rows[i]
		if !r4.ChecksOK {
			t.Errorf("p=%d: checksums disagree", r4.Procs)
		}
		if math.Abs(r4.DiffPct) > 3 {
			t.Errorf("p=%d: optimized diff %.1f%%, paper claims ~2%%", r4.Procs, r4.DiffPct)
		}
		if r4.Procs == 1 {
			continue
		}
		// SingleObject transmits the whole input array on first access:
		// fewer access misses, so less Munin system time and fewer
		// messages (§4.1).
		if r4.System >= r3.System {
			t.Errorf("p=%d: optimized system %v not below unoptimized %v", r4.Procs, r4.System, r3.System)
		}
		if r4.MuninMessages >= r3.MuninMessages {
			t.Errorf("p=%d: optimized messages %d not below %d", r4.Procs, r4.MuninMessages, r3.MuninMessages)
		}
		if r4.DiffPct > r3.DiffPct {
			t.Errorf("p=%d: optimized diff %.1f%% worse than unoptimized %.1f%%", r4.Procs, r4.DiffPct, r3.DiffPct)
		}
	}
}

func TestTable5SORWithinTenPercent(t *testing.T) {
	tbl, err := RunTable5(AppOpts{Iters: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tbl.Rows {
		if !r.ChecksOK {
			t.Errorf("p=%d: checksums disagree with the sequential reference", r.Procs)
		}
		if math.Abs(r.DiffPct) > 10 {
			t.Errorf("p=%d: Munin differs from message passing by %.1f%%, paper claims <=10%%", r.Procs, r.DiffPct)
		}
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if last.Munin*8 > first.Munin {
		t.Errorf("no speedup: p1 %v -> p16 %v", first.Munin, last.Munin)
	}
}

// TestSORSteadyStateMessaging verifies §4.2's headline: after the first
// iteration there is one update exchange between adjacent sections per
// iteration, so message counts grow linearly with iterations at the
// hand-coded slope.
func TestSORSteadyStateMessaging(t *testing.T) {
	short, err := RunTable5(AppOpts{Iters: 10, Procs: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunTable5(AppOpts{Iters: 20, Procs: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	// Munin per-iteration steady state: updates (2 per interior boundary)
	// plus barrier traffic. The DM slope is the edge exchanges plus
	// nothing else; Munin's slope must stay within ~2.5x of it (updates
	// equal DM edges; the barrier adds the rest).
	muninSlope := long.Rows[0].MuninMessages - short.Rows[0].MuninMessages
	dmSlope := long.Rows[0].DMMessages - short.Rows[0].DMMessages
	if dmSlope <= 0 || muninSlope <= 0 {
		t.Fatalf("slopes %d (munin), %d (dm)", muninSlope, dmSlope)
	}
	perIter := float64(muninSlope) / 10
	updates := 2.0 * 7 // two updates per interior boundary, 7 boundaries at 8 procs
	barrier := 2.0 * 7 // arrive+release per remote worker per iteration
	if perIter > updates+barrier+1 {
		t.Errorf("munin steady-state slope %.1f msgs/iter, want <= %.1f (updates+barrier)",
			perIter, updates+barrier+1)
	}
}

func TestTable6MultipleProtocolsWin(t *testing.T) {
	tbl, err := RunTable6(Table6Opts{AppOpts: AppOpts{Iters: 25}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
	multiple := tbl.Rows[0]
	for _, r := range tbl.Rows[1:] {
		if multiple.MatMul >= r.MatMul {
			t.Errorf("matmul: multiple (%v) not faster than %s (%v)", multiple.MatMul, r.Name, r.MatMul)
		}
		if multiple.SOR >= r.SOR {
			t.Errorf("SOR: multiple (%v) not faster than %s (%v)", multiple.SOR, r.Name, r.SOR)
		}
	}
	// Write-shared SOR re-determines copysets by broadcast every release:
	// message counts blow up against the stable producer-consumer run.
	if tbl.Rows[1].SORMessages < 3*multiple.SORMessages {
		t.Errorf("write-shared SOR messages %d not >> multiple's %d",
			tbl.Rows[1].SORMessages, multiple.SORMessages)
	}
}

func TestTable6FalseSharingConventionalLosesBig(t *testing.T) {
	tbl, err := RunTable6FalseSharing(Table6Opts{})
	if err != nil {
		t.Fatal(err)
	}
	multiple, ws, conv := tbl.Rows[0], tbl.Rows[1], tbl.Rows[2]
	// In the false-sharing, compute-light regime the single-writer
	// protocol ping-pongs whole pages between the two writers of each
	// boundary page; the paper reports conventional SOR at more than
	// twice the multi-protocol time.
	if float64(conv.SOR) < 1.4*float64(multiple.SOR) {
		t.Errorf("conventional SOR %v not >= 1.4x multiple %v", conv.SOR, multiple.SOR)
	}
	if ws.SOR <= multiple.SOR {
		t.Errorf("write-shared SOR %v not above multiple %v", ws.SOR, multiple.SOR)
	}
	// Conventional moves far more data (whole pages per ping-pong).
	if conv.SORMessages <= multiple.SORMessages {
		t.Errorf("conventional messages %d not above multiple's %d", conv.SORMessages, multiple.SORMessages)
	}
}

func TestAblationA1InvalidateCostsReads(t *testing.T) {
	a, err := RunAblationA1(AblationOpts{Procs: 4, Rows: 32, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	update, inv := a.Rows[0], a.Rows[1]
	// Delayed invalidation forces consumers to re-fault pages the update
	// protocol would have refreshed in place: more messages.
	if inv.Messages <= update.Messages {
		t.Errorf("invalidate messages %d not above update's %d", inv.Messages, update.Messages)
	}
}

func TestAblationA2StableSharingSavesDetermination(t *testing.T) {
	a, err := RunAblationA2(AblationOpts{Procs: 4, Rows: 32, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	pc, ws := a.Rows[0], a.Rows[1]
	if pc.Elapsed >= ws.Elapsed {
		t.Errorf("producer-consumer %v not faster than write-shared %v", pc.Elapsed, ws.Elapsed)
	}
	if pc.Messages >= ws.Messages {
		t.Errorf("producer-consumer messages %d not below write-shared's %d", pc.Messages, ws.Messages)
	}
}

func TestAblationA3AssociationAvoidsMisses(t *testing.T) {
	a, err := RunAblationA3(AblationOpts{Procs: 4, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	plain, assoc := a.Rows[0], a.Rows[1]
	if assoc.Elapsed >= plain.Elapsed {
		t.Errorf("associated %v not faster than unassociated %v", assoc.Elapsed, plain.Elapsed)
	}
	if assoc.Messages >= plain.Messages {
		t.Errorf("associated messages %d not below unassociated's %d", assoc.Messages, plain.Messages)
	}
}

func TestAblationA4ExactCopysetFewerMessages(t *testing.T) {
	a, err := RunAblationA4(AblationOpts{Procs: 8, Rows: 64, Iters: 10, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 6 {
		t.Fatalf("%d rows, want (broadcast, exact) pairs for SOR, pipeline and lock ring", len(a.Rows))
	}
	for i := 0; i < len(a.Rows); i += 2 {
		bcast, exact := a.Rows[i], a.Rows[i+1]
		if exact.Messages >= bcast.Messages {
			t.Errorf("%s: exact messages %d not below broadcast's %d", exact.Name, exact.Messages, bcast.Messages)
		}
		if exact.Elapsed > bcast.Elapsed {
			t.Errorf("%s: exact %v slower than broadcast %v", exact.Name, exact.Elapsed, bcast.Elapsed)
		}
	}
}

func TestCriticalSectionCounts(t *testing.T) {
	for _, assoc := range []bool{false, true} {
		r, err := RunCriticalSection(model.CostModel{}, 5, 7, assoc)
		if err != nil {
			t.Fatalf("associate=%v: %v", assoc, err)
		}
		if r.Final != 35 {
			t.Errorf("associate=%v: counter = %d, want 35", assoc, r.Final)
		}
	}
}

func TestAppOptsDefaults(t *testing.T) {
	o := AppOpts{}.withDefaults()
	if o.N != 400 || o.Rows != 512 || o.Cols != 2048 || o.Iters != 100 {
		t.Errorf("defaults = %+v", o)
	}
	if len(o.Procs) != 5 {
		t.Errorf("procs = %v", o.Procs)
	}
	if err := o.Model.Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
	// Overrides stick.
	o2 := AppOpts{N: 64, Procs: []int{2}}.withDefaults()
	if o2.N != 64 || len(o2.Procs) != 1 {
		t.Errorf("overrides lost: %+v", o2)
	}
}

func TestWritePatternMutate(t *testing.T) {
	base := make([]byte, 64)
	for _, p := range Patterns() {
		buf := append([]byte(nil), base...)
		p.Mutate(buf)
		changed := 0
		for w := 0; w < len(buf)/4; w++ {
			if buf[w*4] != 0 || buf[w*4+1] != 0 || buf[w*4+2] != 0 || buf[w*4+3] != 0 {
				changed++
			}
		}
		want := map[WritePattern]int{OneWord: 1, AllWords: 16, AlternateWords: 8}[p]
		if changed != want {
			t.Errorf("%v changed %d words, want %d", p, changed, want)
		}
	}
}
