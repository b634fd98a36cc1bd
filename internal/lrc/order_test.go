package lrc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"munin/internal/vm"
	"munin/internal/wire"
)

// orderedRecord is one record of Order's sequence.
type orderedRecord struct {
	Writer int
	Rec    wire.LrcRecord
}

// ordered collects the sequence Order visits.
func ordered(sets []WriterRecords) []orderedRecord {
	var out []orderedRecord
	Order(sets, func(writer int, rec *wire.LrcRecord) {
		out = append(out, orderedRecord{Writer: writer, Rec: *rec})
	})
	return out
}

// orderReference is the selection sort Order was before it became a merge
// over the sets' heads, kept as the definition Order is held to: pick,
// among everything left, a record nothing left happened before, smallest
// (writer, First) first.
func orderReference(sets []WriterRecords) []orderedRecord {
	var pend []orderedRecord
	for _, s := range sets {
		for _, r := range s.Records {
			pend = append(pend, orderedRecord{Writer: s.Writer, Rec: r})
		}
	}
	var out []orderedRecord
	for len(pend) > 0 {
		best := -1
		for i, c := range pend {
			minimal := true
			for k, o := range pend {
				if k != i && vtLess(o.Rec.VT, c.Rec.VT) {
					minimal = false
					break
				}
			}
			if !minimal {
				continue
			}
			if best < 0 || pend[i].Writer < pend[best].Writer ||
				(pend[i].Writer == pend[best].Writer && pend[i].Rec.First < pend[best].Rec.First) {
				best = i
			}
		}
		if best < 0 {
			best = 0
		}
		out = append(out, pend[best])
		pend = append(pend[:best], pend[best+1:]...)
	}
	return out
}

// history grows per-writer record lists the way a run does: a writer's
// timestamp advances when it closes an interval, and takes the
// componentwise maximum of another's when it synchronizes with it.
type history struct {
	vt   [][]uint32
	pend []uint32 // first closed, unmaterialized interval per writer (0: none)
	recs [][]wire.LrcRecord
}

func newHistory(writers int) *history {
	h := &history{vt: make([][]uint32, writers), pend: make([]uint32, writers), recs: make([][]wire.LrcRecord, writers)}
	for w := range h.vt {
		h.vt[w] = make([]uint32, writers)
	}
	return h
}

// close closes an interval at w and leaves it pending.
func (h *history) close(w int) {
	h.vt[w][w]++
	if h.pend[w] == 0 {
		h.pend[w] = h.vt[w][w]
	}
}

// materialize turns w's pending intervals into one record stamped with
// the last one's close-time timestamp, as core does.
func (h *history) materialize(w int) {
	if h.pend[w] == 0 {
		return
	}
	h.recs[w] = append(h.recs[w], wire.LrcRecord{
		First: h.pend[w], Last: h.vt[w][w], VT: append([]uint32(nil), h.vt[w]...),
	})
	h.pend[w] = 0
}

// write is close + materialize: one record per interval.
func (h *history) write(w int) { h.close(w); h.materialize(w) }

// acquire makes w see everything from has seen (a lock grant).
func (h *history) acquire(w, from int) {
	for j := range h.vt[w] {
		if h.vt[from][j] > h.vt[w][j] {
			h.vt[w][j] = h.vt[from][j]
		}
	}
}

// barrier makes every writer see everything.
func (h *history) barrier() {
	for w := range h.vt {
		h.acquire(0, w)
	}
	for w := range h.vt {
		h.acquire(w, 0)
	}
}

// sets materializes what is pending and returns one set per writer.
func (h *history) sets() []WriterRecords {
	var out []WriterRecords
	for w := range h.recs {
		h.materialize(w)
		out = append(out, WriterRecords{Writer: w, Records: h.recs[w]})
	}
	return out
}

// ascends reports Order's precondition for one set: each record happened
// before the next.
func ascends(rs []wire.LrcRecord) bool {
	for i := 1; i < len(rs); i++ {
		if !vtLess(rs[i-1].VT, rs[i].VT) {
			return false
		}
	}
	return true
}

// requireOrderEqualsReference holds Order to the selection sort, record
// for record, on sets that meet its precondition.
func requireOrderEqualsReference(t *testing.T, name string, sets []WriterRecords) {
	t.Helper()
	for _, s := range sets {
		if !ascends(s.Records) {
			t.Fatalf("%s: writer %d's set does not ascend in happens-before: the generator broke Order's precondition", name, s.Writer)
		}
	}
	got, want := ordered(sets), orderReference(sets)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Order differs from the selection sort\n got %s\nwant %s", name, brief(got), brief(want))
	}
}

func brief(rs []orderedRecord) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf(" w%d[%d-%d]", r.Writer, r.Rec.First, r.Rec.Last)
	}
	return s
}

func TestOrderEqualsSelectionSort(t *testing.T) {
	for writers := 1; writers <= 8; writers++ {
		// A lock chain: each writer acquires from the previous holder.
		h := newHistory(writers)
		for round := 0; round < 5*writers; round++ {
			w := round % writers
			h.acquire(w, (w+writers-1)%writers)
			h.write(w)
		}
		requireOrderEqualsReference(t, fmt.Sprintf("lock chain, %d writers", writers), h.sets())

		// Concurrent writers: nobody synchronizes, only the tie-break orders.
		h = newHistory(writers)
		for round := 0; round < 4; round++ {
			for w := writers - 1; w >= 0; w-- {
				h.write(w)
			}
		}
		requireOrderEqualsReference(t, fmt.Sprintf("concurrent, %d writers", writers), h.sets())

		// Records straddling a barrier: intervals closed on both sides of
		// it and materialized as one record after.
		h = newHistory(writers)
		for w := 0; w < writers; w++ {
			h.write(w)
			h.close(w)
		}
		h.barrier()
		for w := 0; w < writers; w++ {
			h.close(w)
			if w%2 == 0 {
				h.materialize(w)
			}
			h.write(w)
		}
		requireOrderEqualsReference(t, fmt.Sprintf("barrier straddle, %d writers", writers), h.sets())

		// Random mixes of all of it.
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed*8 + int64(writers)))
			h = newHistory(writers)
			for step := 0; step < 60; step++ {
				w := rng.Intn(writers)
				switch rng.Intn(10) {
				case 0:
					h.barrier()
				case 1, 2, 3:
					h.acquire(w, rng.Intn(writers))
				case 4:
					h.close(w)
				case 5:
					h.materialize(w)
				default:
					h.write(w)
				}
			}
			sets := h.sets()
			rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
			requireOrderEqualsReference(t, fmt.Sprintf("random seed %d, %d writers", seed, writers), sets)
		}
	}
}

func TestOrderEmpty(t *testing.T) {
	if got := ordered(nil); got != nil {
		t.Errorf("Order(nil) visited %v", got)
	}
	if got := ordered([]WriterRecords{{Writer: 0}, {Writer: 3, UpTo: 7}}); got != nil {
		t.Errorf("Order of empty sets visited %v", got)
	}
	h := newHistory(3)
	h.write(1)
	h.write(1)
	requireOrderEqualsReference(t, "two empty sets and one of two records", h.sets())
}

// TestOrderManySets: more sets than Order keeps heads for on its stack.
func TestOrderManySets(t *testing.T) {
	const writers = 20
	h := newHistory(writers)
	for round := 0; round < 3*writers; round++ {
		w := (round * 7) % writers
		if round%3 != 0 {
			h.acquire(w, (w+1)%writers)
		}
		h.write(w)
	}
	requireOrderEqualsReference(t, "20 writers", h.sets())
}

// TestOrderSplitWriter: the precondition is per set, not per writer. A
// writer's records arriving as two sets, each ascending, order as the
// selection sort orders them.
func TestOrderSplitWriter(t *testing.T) {
	h := newHistory(3)
	for round := 0; round < 12; round++ {
		w := round % 3
		h.acquire(w, (w+2)%3)
		h.write(w)
	}
	sets := h.sets()
	split := []WriterRecords{
		{Writer: 1, Records: sets[1].Records[2:]},
		sets[0], sets[2],
		{Writer: 1, Records: sets[1].Records[:2]},
	}
	requireOrderEqualsReference(t, "writer 1 in two sets", split)
}

// TestOrderCorruptTimestamps: timestamps no run produces must still give
// every record back exactly once. Happens-before as vtLess defines it is
// a strict partial order whatever the numbers are, so no input makes a
// true cycle; what corrupt input can do is compare as concurrent
// (timestamps of different lengths, missing ones) or as equal, and there
// Order still equals the selection sort. A set that does not ascend
// breaks the precondition: Order then emits that set in the order given
// (the selection sort would reorder it) and still terminates.
func TestOrderCorruptTimestamps(t *testing.T) {
	rec := func(first uint32, vt ...uint32) wire.LrcRecord {
		return wire.LrcRecord{First: first, Last: first, VT: vt}
	}
	concurrent := []WriterRecords{
		{Writer: 2, Records: []wire.LrcRecord{rec(1, 1, 0, 0), rec(2)}},
		{Writer: 0, Records: []wire.LrcRecord{rec(1, 0, 1), rec(2, 5, 5, 5, 5)}},
		{Writer: 1, Records: []wire.LrcRecord{rec(3, 1, 0, 0), rec(4, 1, 0, 0)}},
	}
	got, want := ordered(concurrent), orderReference(concurrent)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mismatched and equal timestamps: Order differs from the selection sort\n got %s\nwant %s", brief(got), brief(want))
	}

	descending := []WriterRecords{
		{Writer: 0, Records: []wire.LrcRecord{rec(2, 2, 1), rec(1, 1, 0)}},
		{Writer: 1, Records: []wire.LrcRecord{rec(1, 1, 1)}},
	}
	got = ordered(descending)
	if len(got) != 3 {
		t.Fatalf("a descending set: Order returned %d records, want 3", len(got))
	}
	var w0 []uint32
	for _, r := range got {
		if r.Writer == 0 {
			w0 = append(w0, r.Rec.First)
		}
	}
	if !reflect.DeepEqual(w0, []uint32{2, 1}) {
		t.Errorf("a descending set came out as %v, want the order given", w0)
	}
}

// model is the linear-scan reference for the engine's two ascending
// stores: everything the test put in, filtered on every question.
type model struct {
	nodes   int
	known   []wire.LrcInterval // ordered by (node, interval)
	records map[vm.Addr][]wire.LrcRecord
	floors  []uint32
}

func (m *model) noticesSince(vt []uint32) []wire.LrcInterval {
	var out []wire.LrcInterval
	for _, iv := range m.known {
		if iv.Ivl > vt[iv.Node] && iv.Ivl > m.floors[iv.Node] {
			out = append(out, iv)
		}
	}
	return out
}

func (m *model) recordsAfter(self int, a vm.Addr, after uint32) []wire.LrcRecord {
	var out []wire.LrcRecord
	for _, r := range m.records[a] {
		if r.Last > after && r.Last > m.floors[self] {
			out = append(out, r)
		}
	}
	return out
}

// longEngine builds node 0's engine of a machine of nodes nodes after
// each has closed perNode intervals over a few objects, node 0 having
// materialized a record per own interval, together with its model.
func longEngine(nodes, perNode int) (*Engine, *model) {
	e := New(0, nodes)
	m := &model{nodes: nodes, records: map[vm.Addr][]wire.LrcRecord{}, floors: make([]uint32, nodes)}
	addrOf := func(j, i int) vm.Addr { return vm.SharedBase + vm.Addr(((j+i)%5)*vm.DefaultPageSize) }
	for i := 1; i <= perNode; i++ {
		a := addrOf(0, i)
		ivl := e.CloseInterval([]vm.Addr{a})
		rec := wire.LrcRecord{First: ivl, Last: ivl, VT: e.VT(), Diff: []byte{byte(i)}}
		e.AddRecord(a, rec)
		m.records[a] = append(m.records[a], rec)
		m.known = append(m.known, wire.LrcInterval{Node: 0, Ivl: ivl, Addrs: []vm.Addr{a}})
	}
	for j := 1; j < nodes; j++ {
		var ns []wire.LrcInterval
		for i := 1; i <= perNode; i++ {
			ns = append(ns, wire.LrcInterval{Node: uint8(j), Ivl: uint32(i), Addrs: []vm.Addr{addrOf(j, i), addrOf(j, i+1)}})
		}
		e.Absorb(nil, ns)
		m.known = append(m.known, ns...)
	}
	return e, m
}

// requireStoresMatchModel asks the engine and the model the same
// questions at every cut of every list.
func requireStoresMatchModel(t *testing.T, when string, e *Engine, m *model, perNode int) {
	t.Helper()
	var scratch []wire.LrcInterval
	for cut := 0; cut <= perNode+1; cut++ {
		vt := make([]uint32, m.nodes)
		for j := range vt {
			vt[j] = uint32((cut + j) % (perNode + 2))
		}
		if got, want := e.AppendNoticesSince(nil, vt), m.noticesSince(vt); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AppendNoticesSince(nil, %v) = %d notices %+v, linear scan finds %d %+v", when, vt, len(got), got, len(want), want)
		}
		// The uncopied listing, into reused scratch, lists the same.
		scratch = e.AppendNoticesSince(scratch[:0], vt)
		if want := m.noticesSince(vt); len(scratch) != len(want) || len(want) > 0 && !reflect.DeepEqual(scratch, want) {
			t.Fatalf("%s: AppendNoticesSince(%v) = %+v, linear scan finds %+v", when, vt, scratch, want)
		}
		for a := range m.records {
			if got, want := e.RecordsAfter(a, uint32(cut)), m.recordsAfter(0, a, uint32(cut)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: RecordsAfter(%#x, %d) = %+v, linear scan finds %+v", when, a, cut, got, want)
			}
		}
	}
}

func TestIndexedStoresMatchLinearScan(t *testing.T) {
	const nodes, perNode = 4, 23
	e, m := longEngine(nodes, perNode)
	requireStoresMatchModel(t, "before GC", e, m, perNode)

	// A slice handed out before a GC must read the same after it, and
	// after the store has grown again.
	a := vm.SharedBase + vm.Addr(vm.DefaultPageSize)
	held := e.RecordsAfter(a, 3)
	want := append([]wire.LrcRecord(nil), held...)
	if len(held) < 3 {
		t.Fatalf("only %d records held: the test needs a few", len(held))
	}

	m.floors = []uint32{9, 0, 23, 11}
	dropped := 0
	for _, rs := range m.records {
		for _, r := range rs {
			if r.Last <= m.floors[0] {
				dropped++
			}
		}
	}
	if got := e.GC(m.floors); got != dropped {
		t.Fatalf("GC dropped %d records, linear scan counts %d", got, dropped)
	}
	requireStoresMatchModel(t, "after GC", e, m, perNode)

	ivl := e.CloseInterval([]vm.Addr{a})
	rec := wire.LrcRecord{First: ivl, Last: ivl, VT: e.VT(), Diff: []byte{0xee}}
	e.AddRecord(a, rec)
	m.records[a] = append(m.records[a], rec)
	// Node 0's new interval goes after its perNode earlier ones.
	m.known = slices.Insert(m.known, perNode, wire.LrcInterval{Node: 0, Ivl: ivl, Addrs: []vm.Addr{a}})
	requireStoresMatchModel(t, "after GC and a new record", e, m, perNode+1)

	if !reflect.DeepEqual(held, want) {
		t.Errorf("a record slice obtained before the GC changed under its holder\n got %+v\nwant %+v", held, want)
	}

	// A second, total GC empties both stores.
	m.floors = []uint32{uint32(perNode + 1), 23, 23, 23}
	e.GC(m.floors)
	requireStoresMatchModel(t, "after a total GC", e, m, perNode+1)
	if e.RecordCount() != 0 {
		t.Errorf("%d records survive a total GC", e.RecordCount())
	}
	if !reflect.DeepEqual(held, want) {
		t.Errorf("a record slice obtained before two GCs changed under its holder")
	}
}

// TestAbsorbTouchedSortedOnce: an object named by two intervals, and by
// two writers, is counted once.
func TestAbsorbTouchedSortedOnce(t *testing.T) {
	e := New(0, 3)
	touched := e.Absorb(nil, []wire.LrcInterval{
		{Node: 1, Ivl: 1, Addrs: []vm.Addr{0x80004000, 0x80006000}},
		{Node: 1, Ivl: 2, Addrs: []vm.Addr{0x80002000, 0x80004000}},
		{Node: 2, Ivl: 1, Addrs: []vm.Addr{0x80000000, 0x80004000}},
	})
	if touched != 4 {
		t.Errorf("touched %d objects, want 4", touched)
	}
	if e.Stats.NoticesAbsorbed != 6 {
		t.Errorf("absorbed %d notices, want 6", e.Stats.NoticesAbsorbed)
	}
}

var benchSink int

// BenchmarkOrderLongHistory orders what a node reading a lock-protected
// object back at the end of a long run pulls: two writers, 2,000 records
// each, alternating in happens-before.
func BenchmarkOrderLongHistory(b *testing.B) {
	h := newHistory(2)
	for round := 0; round < 4000; round++ {
		w := round % 2
		h.acquire(w, 1-w)
		h.write(w)
	}
	sets := h.sets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Order(sets, func(int, *wire.LrcRecord) { benchSink++ })
	}
}

// BenchmarkNoticesSinceLongHistory is a lock grant late in a long run: 8
// nodes × 2,000 known intervals, and the acquirer lacks one.
func BenchmarkNoticesSinceLongHistory(b *testing.B) {
	e, _ := longEngine(8, 2000)
	vt := e.VT()
	vt[3]--
	var scratch []wire.LrcInterval
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = e.AppendNoticesSince(scratch[:0], vt)
		benchSink += len(scratch)
	}
}
