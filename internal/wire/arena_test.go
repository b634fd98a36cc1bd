package wire

import (
	"fmt"
	"reflect"
	"testing"

	"munin/internal/vm"
)

// lazyArenaMessages are the lazy engine's list-heavy kinds, each with
// several lists of every element type, and a Batch of them.
func lazyArenaMessages() []Message {
	grant := LrcLockGrant{Lock: 3, VT: []uint32{4, 1, 0, 7},
		Notices: []LrcInterval{
			{Node: 0, Ivl: 4, Addrs: []vm.Addr{0x80000000, 0x80002000}},
			{Node: 1, Ivl: 1, Addrs: []vm.Addr{0x80004000}},
			{Node: 3, Ivl: 6, Addrs: []vm.Addr{0x80002000, 0x80006000, 0x80008000}},
			{Node: 3, Ivl: 7, Addrs: []vm.Addr{0x8000a000}},
		}}
	arrive := LrcBarrierArrive{Barrier: 9, From: 2, VT: []uint32{4, 1, 3, 7}, Floors: []uint32{1, 1, 2, 5},
		Notices: []LrcInterval{
			{Node: 2, Ivl: 2, Addrs: []vm.Addr{0x80000000}},
			{Node: 2, Ivl: 3, Addrs: []vm.Addr{0x80002000, 0x80004000}},
		}}
	resp := LrcDiffResp{Token: 11, Sets: []LrcDiffSet{
		{Addr: 0x80000000, Records: []LrcRecord{
			{First: 1, Last: 2, VT: []uint32{2, 0, 0, 0}, Diff: []byte{1, 0, 0, 0, 1, 0, 0, 0, 42, 0, 0, 0}},
			{First: 3, Last: 3, VT: []uint32{3, 1, 0, 0}, Full: []byte{9, 9, 9, 9}},
		}},
		{Addr: 0x80002000, Records: []LrcRecord{
			{First: 1, Last: 1, VT: []uint32{1, 0, 0, 0}, Diff: []byte{1, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0}},
		}},
		{Addr: 0x80004000, Records: []LrcRecord{
			{First: 2, Last: 4, VT: []uint32{4, 1, 0, 2}, Diff: []byte{3, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0}},
			{First: 5, Last: 5, VT: []uint32{5, 1, 0, 2}, Diff: []byte{3, 0, 0, 0, 1, 0, 0, 0, 6, 0, 0, 0}},
		}},
	}}
	return []Message{grant, arrive, resp, Batch{Msgs: []Message{grant, arrive, resp}}}
}

// decodedLists collects, in decode order, every uint32, address and
// record list of a decoded lazy message.
type decodedLists struct {
	u32s  [][]uint32
	addrs [][]vm.Addr
	recs  [][]LrcRecord
}

func (l *decodedLists) add(m Message) {
	switch m := m.(type) {
	case LrcLockGrant:
		l.u32s = append(l.u32s, m.VT)
		l.intervals(m.Notices)
	case LrcBarrierArrive:
		l.u32s = append(l.u32s, m.VT, m.Floors)
		l.intervals(m.Notices)
	case LrcDiffResp:
		for _, s := range m.Sets {
			l.recs = append(l.recs, s.Records)
			for _, r := range s.Records {
				l.u32s = append(l.u32s, r.VT)
			}
		}
	case Batch:
		for _, sub := range m.Msgs {
			l.add(sub)
		}
	default:
		panic(fmt.Sprintf("decodedLists: %T", m))
	}
}

func (l *decodedLists) intervals(ivs []LrcInterval) {
	for _, iv := range ivs {
		l.addrs = append(l.addrs, iv.Addrs)
	}
}

// snapshot deep-copies every list's contents.
func (l *decodedLists) snapshot() decodedLists {
	var c decodedLists
	for _, s := range l.u32s {
		c.u32s = append(c.u32s, append([]uint32(nil), s...))
	}
	for _, s := range l.addrs {
		c.addrs = append(c.addrs, append([]vm.Addr(nil), s...))
	}
	for _, s := range l.recs {
		c.recs = append(c.recs, append([]LrcRecord(nil), s...))
	}
	return c
}

// TestDecoderArenasIsolateLists: every list the decoder cuts from its
// arenas is capacity-clipped, so appending to one leaves its
// neighbours' contents alone, and the round trip is unchanged; both
// decoders, and riders of a Batch, behave alike.
func TestDecoderArenasIsolateLists(t *testing.T) {
	decoders := map[string]func([]byte) (Message, error){"Unmarshal": Unmarshal, "UnmarshalView": UnmarshalView}
	for name, decode := range decoders {
		for _, msg := range lazyArenaMessages() {
			got, err := decode(Marshal(msg))
			if err != nil {
				t.Fatalf("%s(%v): %v", name, msg.Kind(), err)
			}
			if !reflect.DeepEqual(got, msg) {
				t.Fatalf("%s(%v) round trip:\n got %#v\nwant %#v", name, msg.Kind(), got, msg)
			}
			var l decodedLists
			l.add(got)
			for i, s := range l.u32s {
				if len(s) != cap(s) {
					t.Errorf("%s(%v): uint32 list %d has len %d, cap %d", name, msg.Kind(), i, len(s), cap(s))
				}
			}
			for i, s := range l.addrs {
				if len(s) != cap(s) {
					t.Errorf("%s(%v): address list %d has len %d, cap %d", name, msg.Kind(), i, len(s), cap(s))
				}
			}
			for i, s := range l.recs {
				if len(s) != cap(s) {
					t.Errorf("%s(%v): record list %d has len %d, cap %d", name, msg.Kind(), i, len(s), cap(s))
				}
			}
			want := l.snapshot()
			for _, s := range l.u32s {
				_ = append(s, 0xdeadbeef)
			}
			for _, s := range l.addrs {
				_ = append(s, 0xdead0000)
			}
			for _, s := range l.recs {
				_ = append(s, LrcRecord{First: 0xdead})
			}
			if after := l.snapshot(); !reflect.DeepEqual(after, want) {
				t.Errorf("%s(%v): appending to a decoded list changed another\n got %+v\nwant %+v", name, msg.Kind(), after, want)
			}
		}
	}
}

// TestDecoderEmptyListsDecodeNil: an empty list decodes to nil whatever
// its element type (addrs, u32s, intervals, records, updates), and
// whether it was sent as nil or as an empty slice.
func TestDecoderEmptyListsDecodeNil(t *testing.T) {
	for _, msg := range []Message{
		LrcDiffReq{Requester: 1, Token: 2, Addrs: []vm.Addr{}, After: []uint32{}},
		LrcDiffReq{Requester: 1, Token: 2},
		LrcLockGrant{Lock: 1, VT: []uint32{}, Notices: []LrcInterval{}, Updates: []UpdateEntry{}},
		LrcLockGrant{Lock: 1, Notices: []LrcInterval{{Node: 1, Ivl: 2, Addrs: []vm.Addr{}}}},
		LrcDiffResp{Token: 3, Sets: []LrcDiffSet{{Addr: 0x80000000, Records: []LrcRecord{}}}},
		LrcDiffResp{Token: 3, Sets: []LrcDiffSet{{Addr: 0x80000000, Records: []LrcRecord{{First: 1, Last: 1, VT: []uint32{}}}}}},
	} {
		got, err := UnmarshalView(Marshal(msg))
		if err != nil {
			t.Fatalf("%v: %v", msg.Kind(), err)
		}
		var empty []string
		switch m := got.(type) {
		case LrcDiffReq:
			if m.Addrs != nil {
				empty = append(empty, "addrs")
			}
			if m.After != nil {
				empty = append(empty, "u32s")
			}
		case LrcLockGrant:
			if m.VT != nil {
				empty = append(empty, "u32s")
			}
			if len(m.Notices) == 0 && m.Notices != nil {
				empty = append(empty, "intervals")
			}
			if m.Updates != nil {
				empty = append(empty, "updates")
			}
			for _, iv := range m.Notices {
				if iv.Addrs != nil {
					empty = append(empty, "interval addrs")
				}
			}
		case LrcDiffResp:
			for _, s := range m.Sets {
				if len(s.Records) == 0 && s.Records != nil {
					empty = append(empty, "records")
				}
				for _, r := range s.Records {
					if r.VT != nil {
						empty = append(empty, "record u32s")
					}
				}
			}
		}
		if empty != nil {
			t.Errorf("%v: empty %v decoded as non-nil empty slices", msg.Kind(), empty)
		}
	}
}

// lrcDecodeMessages returns a lock grant with n notice intervals and a
// diff response with n records (four to a set), as the lazy engine
// sends them to an 8-node machine.
func lrcDecodeMessages(n int) (grant, resp Message) {
	vt := func(i int) []uint32 { return []uint32{uint32(i), 3, 0, 9, 1, 0, 2, 5} }
	diff := []byte{4, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	g := LrcLockGrant{Lock: 1, VT: vt(n)}
	for i := 0; i < n; i++ {
		g.Notices = append(g.Notices, LrcInterval{Node: uint8(i % 8), Ivl: uint32(i + 1),
			Addrs: []vm.Addr{vm.Addr(0x80000000 + i*0x2000), vm.Addr(0x80001000 + i*0x2000)}})
	}
	r := LrcDiffResp{Token: 7}
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			r.Sets = append(r.Sets, LrcDiffSet{Addr: vm.Addr(0x80000000 + i*0x2000)})
		}
		s := &r.Sets[len(r.Sets)-1]
		s.Records = append(s.Records, LrcRecord{First: uint32(i + 1), Last: uint32(i + 1), VT: vt(i), Diff: diff})
	}
	return g, r
}

// BenchmarkLrcDecode measures the receive decode of the lazy engine's
// list-heavy replies: a lock grant with 1 and 16 notice intervals, and a
// diff response with 1 and 16 records. Every list comes from a
// per-message arena, so allocs/op does not grow with those counts; the
// CI update-path job fails if it exceeds 4.
func BenchmarkLrcDecode(b *testing.B) {
	for _, n := range []int{1, 16} {
		grant, resp := lrcDecodeMessages(n)
		for _, c := range []struct {
			name string
			msg  Message
		}{
			{fmt.Sprintf("intervals=%d", n), grant},
			{fmt.Sprintf("records=%d", n), resp},
		} {
			enc := Marshal(c.msg)
			b.Run(c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := UnmarshalView(enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
