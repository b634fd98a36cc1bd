package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// TestUnmarshalViewMatchesUnmarshal decodes every message kind both ways
// and requires identical results: the zero-copy view differs only in
// where its byte payloads point, never in what they say.
func TestUnmarshalViewMatchesUnmarshal(t *testing.T) {
	for _, msg := range sampleMessages() {
		enc := Marshal(msg)
		owned, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("%v: Unmarshal: %v", msg.Kind(), err)
		}
		view, err := UnmarshalView(enc)
		if err != nil {
			t.Fatalf("%v: UnmarshalView: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(owned, view) {
			t.Errorf("%v: view decode disagrees with copying decode\n owned: %#v\n view:  %#v",
				msg.Kind(), owned, view)
		}
	}
}

// TestUnmarshalViewAliasesBuffer proves the view actually borrows: a
// mutation of the encoded buffer shows through the decoded payload. This
// is the property the ownership discipline (Own/OwnEntry, the dispatch
// release point) exists to manage — if it ever stops holding, the
// zero-copy path has silently become a copying one.
func TestUnmarshalViewAliasesBuffer(t *testing.T) {
	msg := ReadReply{Addr: 0x80001000, Owner: 2, Data: []byte{1, 2, 3, 4}}
	enc := Marshal(msg)
	view, err := UnmarshalView(enc)
	if err != nil {
		t.Fatal(err)
	}
	data := view.(ReadReply).Data
	if !bytes.Equal(data, msg.Data) {
		t.Fatalf("decoded %v, want %v", data, msg.Data)
	}
	for i := range enc {
		enc[i] = 0xEE
	}
	if bytes.Equal(data, msg.Data) {
		t.Fatal("UnmarshalView copied the payload; the view must alias the buffer")
	}

	// The copying decoder must NOT alias.
	enc = Marshal(msg)
	owned, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xEE
	}
	if !bytes.Equal(owned.(ReadReply).Data, msg.Data) {
		t.Fatal("Unmarshal returned a view; the copying decoder must own its payloads")
	}
}

// TestOwnDetachesEveryKind re-owns a borrowed view of every message kind,
// poisons the original buffer, and requires the owned copy to survive
// untouched — the contract dispatch relies on for anything retained past
// the envelope's release.
func TestOwnDetachesEveryKind(t *testing.T) {
	for _, msg := range sampleMessages() {
		enc := Marshal(msg)
		ref := append([]byte(nil), enc...)
		view, err := UnmarshalView(enc)
		if err != nil {
			t.Fatalf("%v: UnmarshalView: %v", msg.Kind(), err)
		}
		owned := Own(view)
		for i := range enc {
			enc[i] = 0xEE
		}
		want, err := Unmarshal(ref)
		if err != nil {
			t.Fatalf("%v: Unmarshal: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(owned, want) {
			t.Errorf("%v: owned copy corrupted by buffer reuse\n owned: %#v\n want:  %#v",
				msg.Kind(), owned, want)
		}
	}
}

// TestOwnInPlace: Own re-owns a diff response, a lock grant and an
// update batch where they lie, returning the same message, so a poisoned
// receive buffer leaves the owned records and entries equal to what was
// sent; and all of a diff response's record payloads cost one
// allocation, whatever their number.
func TestOwnInPlace(t *testing.T) {
	diff := []byte{1, 0, 0, 0, 1, 0, 0, 0, 42, 0, 0, 0}
	resp := func(records int) LrcDiffResp {
		m := LrcDiffResp{Token: 5, Sets: []LrcDiffSet{{Addr: 0x80000000}, {Addr: 0x80002000}}}
		for i := 0; i < records; i++ {
			s := &m.Sets[i%2]
			r := LrcRecord{First: uint32(i + 1), Last: uint32(i + 1), VT: []uint32{uint32(i), 1}, Diff: diff}
			if i%3 == 2 {
				r.Diff, r.Full = nil, []byte{byte(i), 2, 3, 4}
			}
			s.Records = append(s.Records, r)
		}
		return m
	}
	entries := []UpdateEntry{
		{Addr: 0x80005000, Size: 8192, Diff: diff},
		{Addr: 0x80007000, Size: 16, Full: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
	}
	for _, msg := range []Message{
		resp(5),
		LockGrant{Lock: 1, Updates: entries},
		UpdateBatch{From: 4, NeedAck: true, Entries: entries},
	} {
		enc := Marshal(msg)
		view, err := UnmarshalView(enc)
		if err != nil {
			t.Fatalf("%v: %v", msg.Kind(), err)
		}
		owned := Own(view)
		for i := range enc {
			enc[i] = 0xEE
		}
		if !reflect.DeepEqual(owned, msg) {
			t.Errorf("%v: owned message corrupted by the poisoned buffer\n got %#v\nwant %#v", msg.Kind(), owned, msg)
		}
		// In place: the owned message's lists are the view's.
		var same bool
		switch m := owned.(type) {
		case LrcDiffResp:
			same = &m.Sets[0].Records[0] == &view.(LrcDiffResp).Sets[0].Records[0]
		case LockGrant:
			same = &m.Updates[0] == &view.(LockGrant).Updates[0]
		case UpdateBatch:
			same = &m.Entries[0] == &view.(UpdateBatch).Entries[0]
		}
		if !same {
			t.Errorf("%v: Own copied the message instead of re-owning it in place", msg.Kind())
		}
	}
	for _, records := range []int{1, 4, 32} {
		view, err := UnmarshalView(Marshal(resp(records)))
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { Own(view) }); got != 1 {
			t.Errorf("Own(LrcDiffResp) of %d records: %v allocations, want 1", records, got)
		}
	}
}

// TestOwnEntryDetaches re-owns a single borrowed update entry (the
// fetch-stash / pending-update-queue retention path).
func TestOwnEntryDetaches(t *testing.T) {
	enc := Marshal(UpdateBatch{From: 1, Entries: []UpdateEntry{
		{Addr: 0x80005000, Size: 16, Full: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
		{Addr: 0x80007000, Size: 8192, Diff: []byte{1, 0, 0, 0, 1, 0, 0, 0, 42, 0, 0, 0}},
	}})
	view, err := UnmarshalView(enc)
	if err != nil {
		t.Fatal(err)
	}
	entries := view.(UpdateBatch).Entries
	full := OwnEntry(entries[0])
	diff := OwnEntry(entries[1])
	for i := range enc {
		enc[i] = 0xEE
	}
	if full.Full[0] != 1 || full.Full[15] != 16 {
		t.Errorf("owned Full corrupted: %v", full.Full)
	}
	if diff.Diff[8] != 42 {
		t.Errorf("owned Diff corrupted: %v", diff.Diff)
	}
}

// TestPoolClassRouting checks the tiered pools hand out adequate
// capacity per class, route returns by capacity, and keep the
// outstanding balance exact — including for oversize plain allocations.
func TestPoolClassRouting(t *testing.T) {
	start := Outstanding()
	sizes := []int{0, 1, 1 << 10, 1<<10 + 1, 8 << 10, 64 << 10, 512 << 10, 512<<10 + 1, 2 << 20}
	var bufs []*[]byte
	for _, n := range sizes {
		bp := GetBufN(n)
		if cap(*bp) < n {
			t.Fatalf("GetBufN(%d): capacity %d", n, cap(*bp))
		}
		if len(*bp) != 0 {
			t.Fatalf("GetBufN(%d): non-empty buffer", n)
		}
		bufs = append(bufs, bp)
	}
	if got := Outstanding() - start; got != int64(len(sizes)) {
		t.Fatalf("outstanding delta %d after %d borrows", got, len(sizes))
	}
	for _, bp := range bufs {
		PutBuf(bp)
	}
	if got := Outstanding() - start; got != 0 {
		t.Fatalf("outstanding delta %d after returning everything", got)
	}
}

// BenchmarkUnmarshalView measures the zero-copy receive decode the mux
// transport runs per frame: a page-carrying reply decodes with a single
// allocation (boxing the message value) because the payload stays in
// the receive buffer. The CI mux job fails if allocs/op here exceeds 2.
func BenchmarkUnmarshalView(b *testing.B) {
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(i)
	}
	enc := Marshal(ReadReply{Addr: 0x80001000, Owner: 2, Data: page})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalView(enc); err != nil {
			b.Fatal(err)
		}
	}
}
