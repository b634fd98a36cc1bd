package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"munin/internal/nodeset"
	"munin/internal/vm"
)

// sampleMessages returns one populated instance of every message kind.
func sampleMessages() []Message {
	return []Message{
		ReadReq{Addr: 0x80001000, Requester: 3, Prefetch: true},
		ReadReply{Addr: 0x80001000, Owner: 2, Data: []byte{1, 2, 3, 4}},
		OwnReq{Addr: 0x80002000, Requester: 7},
		OwnReply{Addr: 0x80002000, Copyset: nodeset.FromWord(0b1011), Data: []byte{9, 8, 7, 6}},
		OwnReply{Addr: 0x80002000, Copyset: nodeset.FromNodes(1, 63, 64, 200), Data: []byte{9, 8}},
		Invalidate{Addr: 0x80003000, NewOwner: 5},
		InvalidateAck{Addr: 0x80003000},
		MigrateReq{Addr: 0x80004000, Requester: 1},
		MigrateReply{Addr: 0x80004000, Data: []byte{0xff}},
		UpdateBatch{From: 4, NeedAck: true, Entries: []UpdateEntry{
			{Addr: 0x80005000, Size: 8192, Diff: []byte{1, 0, 0, 0, 1, 0, 0, 0, 42, 0, 0, 0}},
			{Addr: 0x80007000, Size: 16, Full: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
		}},
		UpdateAck{Count: 2},
		CopysetQuery{From: 0, Addrs: []vm.Addr{0x80001000, 0x80003000}},
		CopysetReply{Addrs: []vm.Addr{0x80001000}},
		ReduceReq{Addr: 0x80008000, Off: 4, Op: ReduceMin, Operand: 17, Requester: 6},
		ReduceReply{Addr: 0x80008000, Old: 99},
		LockAcq{Lock: 1, Requester: 9},
		LockSetSucc{Lock: 1, Succ: 10},
		LockOwnNotify{Lock: 1, Owner: 6},
		LockGrant{Lock: 1, Updates: []UpdateEntry{{Addr: 0x80009000, Size: 4, Full: []byte{1, 2, 3, 4}}}},
		BarrierArrive{Barrier: 2, From: 11},
		BarrierRelease{Barrier: 2},
		BarrierRelease{Barrier: 2, Tree: true, Subtree: []uint8{3, 4, 5}},
		DirReq{Addr: 0x8000a000},
		DirReply{Found: true, Start: 0x8000a000, Size: 8192, Annot: 3, Home: 0, Owner: 2},
		PhaseChange{Addr: 0x8000b000},
		ChangeAnnot{Addr: 0x8000b000, Annot: 2},
		CopysetLookup{From: 5, Addrs: []vm.Addr{0x8000c000, 0x8000e000}},
		CopysetInfo{Addrs: []vm.Addr{0x8000c000, 0x8000e000},
			Sets: []nodeset.Set{nodeset.FromWord(0b101), nodeset.FromNodes(3, 4, 65, 130)}},
		CopysetNotify{Addr: 0x8000c000, Reader: 12},
		OwnNotify{Addr: 0x8000c000, Owner: 3},
		AdaptPropose{Addr: 0x8000d000, Annot: 4, Epoch: 2, From: 6, Events: 31, Urgent: true},
		AdaptCommit{Addr: 0x8000d000, Annot: 4, Epoch: 3},
		MPData{Tag: 77, Payload: []byte("hello")},
		LrcLockAcq{Lock: 2, Requester: 3, VT: []uint32{0, 4, 1, 9}},
		LrcLockSetSucc{Lock: 2, Succ: 5, VT: []uint32{1, 0, 0, 2}},
		LrcLockGrant{Lock: 2, VT: []uint32{3, 4, 0, 9},
			Notices: []LrcInterval{
				{Node: 1, Ivl: 4, Addrs: []vm.Addr{0x80001000, 0x80003000}},
				{Node: 3, Ivl: 9, Addrs: []vm.Addr{0x80001000}},
			},
			Updates: []UpdateEntry{{Addr: 0x80009000, Size: 4, Full: []byte{1, 2, 3, 4}}}},
		LrcBarrierArrive{Barrier: 1001, From: 2, VT: []uint32{3, 4, 0, 9},
			Floors:  []uint32{1, 2, 0, 5},
			Notices: []LrcInterval{{Node: 2, Ivl: 1, Addrs: []vm.Addr{0x80002000}}}},
		LrcBarrierRelease{Barrier: 1001, VT: []uint32{3, 4, 1, 9},
			Notices: []LrcInterval{{Node: 0, Ivl: 3, Addrs: []vm.Addr{0x80001000}}}},
		LrcBarrierRelease{Barrier: 1001, Tree: true, Subtree: []uint8{2, 3},
			VT: []uint32{3, 4, 1, 9}},
		LrcDiffReq{Requester: 4, Token: 17, Addrs: []vm.Addr{0x80001000, 0x80003000}, After: []uint32{0, 2}},
		LrcDiffResp{Token: 17, Sets: []LrcDiffSet{
			{Addr: 0x80001000, Records: []LrcRecord{
				{First: 1, Last: 2, VT: []uint32{0, 2, 0, 0}, Diff: []byte{1, 0, 0, 0, 1, 0, 0, 0, 42, 0, 0, 0}},
				{First: 3, Last: 3, VT: []uint32{1, 3, 0, 4}, Full: []byte{9, 9, 9, 9}},
			}},
			{Addr: 0x80003000},
		}},
		LrcFetchReq{Addr: 0x80001000, Requester: 6, Token: 23},
		LrcFetchResp{Addr: 0x80001000, Token: 23, Applied: []uint32{2, 0, 1, 0}, Data: []byte{1, 2, 3, 4}},
		LrcGC{Floors: []uint32{1, 2, 3, 4}},
		Batch{Msgs: []Message{
			UpdateBatch{From: 2, Entries: []UpdateEntry{
				{Addr: 0x80005000, Size: 8192, Diff: []byte{1, 0, 0, 0, 1, 0, 0, 0, 42, 0, 0, 0}},
			}},
			LockGrant{Lock: 1, Updates: []UpdateEntry{{Addr: 0x80009000, Size: 4, Full: []byte{1, 2, 3, 4}}}},
			BarrierRelease{Barrier: 2, Tree: true, Subtree: []uint8{3, 4}},
			LrcGC{Floors: []uint32{1, 2}},
		}},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	seen := map[Kind]bool{}
	for _, msg := range sampleMessages() {
		seen[msg.Kind()] = true
		b := Marshal(msg)
		got, err := Unmarshal(b)
		if err != nil {
			t.Errorf("%v: Unmarshal: %v", msg.Kind(), err)
			continue
		}
		if !reflect.DeepEqual(normalize(got), normalize(msg)) {
			t.Errorf("%v round trip:\n got %#v\nwant %#v", msg.Kind(), got, msg)
		}
	}
	for _, k := range Kinds() {
		if !seen[k] {
			t.Errorf("sampleMessages missing kind %v — add coverage", k)
		}
	}
}

// normalize maps empty and nil slices together for comparison.
func normalize(m Message) Message {
	switch v := m.(type) {
	case ReadReply:
		if len(v.Data) == 0 {
			v.Data = nil
		}
		return v
	case MPData:
		if len(v.Payload) == 0 {
			v.Payload = nil
		}
		return v
	default:
		return m
	}
}

func TestUnmarshalRejectsUnknownKind(t *testing.T) {
	if _, err := Unmarshal([]byte{0xee, 0, 0}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	for _, msg := range sampleMessages() {
		b := Marshal(msg)
		for cut := 1; cut < len(b); cut += 1 + len(b)/7 {
			if _, err := Unmarshal(b[:cut]); err == nil {
				t.Errorf("%v: truncation to %d bytes accepted", msg.Kind(), cut)
			}
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	b := Marshal(BarrierRelease{Barrier: 3})
	b = append(b, 0xaa)
	if _, err := Unmarshal(b); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestSizeMatchesMarshalledLength(t *testing.T) {
	for _, msg := range sampleMessages() {
		if Size(msg) != len(Marshal(msg)) {
			t.Errorf("%v: Size mismatch", msg.Kind())
		}
	}
}

func TestUpdateEntryFullVsDiffDistinguished(t *testing.T) {
	in := UpdateBatch{Entries: []UpdateEntry{
		{Addr: 1 << 31, Size: 8, Diff: []byte{1, 2, 3, 4}},
		{Addr: 1 << 31, Size: 8, Full: []byte{5, 6, 7, 8}},
	}}
	out, err := Unmarshal(Marshal(in))
	if err != nil {
		t.Fatal(err)
	}
	got := out.(UpdateBatch)
	if got.Entries[0].Full != nil || got.Entries[0].Diff == nil {
		t.Error("diff entry decoded as full")
	}
	if got.Entries[1].Diff != nil || got.Entries[1].Full == nil {
		t.Error("full entry decoded as diff")
	}
}

func TestKindStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds() {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if Kind(200).String() != "Kind(200)" {
		t.Error("unknown kind string")
	}
}

func TestReduceOpStrings(t *testing.T) {
	ops := []ReduceOp{ReduceAdd, ReduceMin, ReduceMax, ReduceOr, ReduceAnd}
	seen := map[string]bool{}
	for _, o := range ops {
		if seen[o.String()] {
			t.Errorf("duplicate op name %q", o)
		}
		seen[o.String()] = true
	}
}

func TestFuzzUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Unmarshal(% x) panicked: %v", b, r)
				}
			}()
			Unmarshal(b) //nolint:errcheck // only looking for panics
		}()
	}
}

// TestCopysetInlineFormBytes pins the ≤64-node copyset encoding to the
// codec's original fixed-u64 little-endian layout byte for byte — the
// compatibility the Table 6 bit-identical gate rests on (the simulated
// network charges wire time per encoded byte).
func TestCopysetInlineFormBytes(t *testing.T) {
	b := Marshal(OwnReply{Addr: 0x80002000, Copyset: nodeset.FromWord(0b1011), Data: []byte{7}})
	// Layout: kind(1) addr(4) set(8) databytes(4+1).
	want := []byte{0b1011, 0, 0, 0, 0, 0, 0, 0}
	if !reflect.DeepEqual(b[5:13], want) {
		t.Fatalf("inline copyset bytes = % x, want % x", b[5:13], want)
	}
	if len(b) != 1+4+8+4+1 {
		t.Fatalf("inline OwnReply length = %d", len(b))
	}
}

// TestCopysetRoundTripFuzz drives randomized sets — inline, overflow,
// and straddling the 64-node line — through both copyset-carrying
// messages and back.
func TestCopysetRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		var s nodeset.Set
		for j, n := 0, rng.Intn(80); j < n; j++ {
			s = s.Add(rng.Intn(300))
		}
		out, err := Unmarshal(Marshal(OwnReply{Addr: 1 << 31, Copyset: s}))
		if err != nil {
			t.Fatalf("OwnReply{%v}: %v", s, err)
		}
		if got := out.(OwnReply).Copyset; !got.Equal(s) {
			t.Fatalf("OwnReply copyset round trip: got %v, want %v", got, s)
		}
		info := CopysetInfo{Addrs: []vm.Addr{1 << 31}, Sets: []nodeset.Set{s}}
		out, err = Unmarshal(Marshal(info))
		if err != nil {
			t.Fatalf("CopysetInfo{%v}: %v", s, err)
		}
		if got := out.(CopysetInfo).Sets[0]; !got.Equal(s) {
			t.Fatalf("CopysetInfo copyset round trip: got %v, want %v", got, s)
		}
	}
	// The full inline word is the escape marker: it must take the
	// extended form and still round-trip.
	full := nodeset.AllUpTo(64)
	out, err := Unmarshal(Marshal(OwnReply{Addr: 1 << 31, Copyset: full}))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(OwnReply).Copyset; !got.Equal(full) {
		t.Fatalf("AllUpTo(64) round trip: got %v", got)
	}
}

func TestMPDataRoundTripProperty(t *testing.T) {
	f := func(tag uint32, payload []byte) bool {
		out, err := Unmarshal(Marshal(MPData{Tag: tag, Payload: payload}))
		if err != nil {
			return false
		}
		got := out.(MPData)
		if got.Tag != tag {
			return false
		}
		if len(payload) == 0 {
			return len(got.Payload) == 0
		}
		return reflect.DeepEqual(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCopysetQueryRoundTripProperty(t *testing.T) {
	f := func(from uint8, raw []uint32) bool {
		addrs := make([]vm.Addr, len(raw))
		for i, v := range raw {
			addrs[i] = vm.Addr(v)
		}
		out, err := Unmarshal(Marshal(CopysetQuery{From: from, Addrs: addrs}))
		if err != nil {
			return false
		}
		got := out.(CopysetQuery)
		if got.From != from || len(got.Addrs) != len(addrs) {
			return false
		}
		for i := range addrs {
			if got.Addrs[i] != addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
