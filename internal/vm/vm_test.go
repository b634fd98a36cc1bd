package vm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newTestSpace() *Space { return NewSpace(DefaultPageSize) }

// mapZero maps a zeroed page at base with the given protection.
func mapZero(s *Space, base Addr, prot Prot) *Page {
	return s.Map(base, make([]byte, s.PageSize()), prot)
}

func TestPageBaseAndSpan(t *testing.T) {
	s := newTestSpace()
	if got := s.PageBase(SharedBase + 5000); got != SharedBase {
		t.Errorf("PageBase = %#x, want %#x", got, SharedBase)
	}
	span := s.PageSpan(SharedBase+100, 2*DefaultPageSize)
	if len(span) != 3 {
		t.Fatalf("span covers %d pages, want 3", len(span))
	}
	for i, b := range span {
		want := SharedBase + Addr(i*DefaultPageSize)
		if b != want {
			t.Errorf("span[%d] = %#x, want %#x", i, b, want)
		}
	}
	if s.PageSpan(SharedBase, 0) != nil {
		t.Error("empty span should be nil")
	}
}

func TestMapAlignmentChecked(t *testing.T) {
	s := newTestSpace()
	defer func() {
		if recover() == nil {
			t.Error("unaligned Map did not panic")
		}
	}()
	s.Map(SharedBase+4, make([]byte, DefaultPageSize), ProtRead)
}

func TestMapSizeChecked(t *testing.T) {
	s := newTestSpace()
	defer func() {
		if recover() == nil {
			t.Error("short Map did not panic")
		}
	}()
	s.Map(SharedBase, make([]byte, 100), ProtRead)
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := newTestSpace()
	mapZero(s, SharedBase, ProtReadWrite)
	mapZero(s, SharedBase+DefaultPageSize, ProtReadWrite)

	// Cross-page write and read back.
	src := make([]byte, 600)
	for i := range src {
		src[i] = byte(i)
	}
	addr := SharedBase + DefaultPageSize - 300
	s.Write(nil, addr, src)
	got := make([]byte, 600)
	s.Read(nil, addr, got)
	if !bytes.Equal(got, src) {
		t.Error("cross-page round trip mismatch")
	}
}

func TestWordRoundTrip(t *testing.T) {
	s := newTestSpace()
	mapZero(s, SharedBase, ProtReadWrite)
	s.WriteWord(nil, SharedBase+8, 0xdeadbeef)
	if got := s.ReadWord(nil, SharedBase+8); got != 0xdeadbeef {
		t.Errorf("ReadWord = %#x, want 0xdeadbeef", got)
	}
}

func TestUnalignedWordPanics(t *testing.T) {
	s := newTestSpace()
	mapZero(s, SharedBase, ProtReadWrite)
	defer func() {
		if recover() == nil {
			t.Error("unaligned word did not panic")
		}
	}()
	s.ReadWord(nil, SharedBase+2)
}

// recordingHandler maps/upgrades pages on fault and records the sequence.
type recordingHandler struct {
	s      *Space
	faults []struct {
		base  Addr
		write bool
	}
}

func (h *recordingHandler) HandleFault(ctx any, base Addr, write bool) {
	h.faults = append(h.faults, struct {
		base  Addr
		write bool
	}{base, write})
	prot := ProtRead
	if write {
		prot = ProtReadWrite
	}
	if _, ok := h.s.Lookup(base); ok {
		h.s.Protect(base, prot)
	} else {
		h.s.Map(base, make([]byte, h.s.PageSize()), prot)
	}
}

func TestReadFaultInvokesHandler(t *testing.T) {
	s := newTestSpace()
	h := &recordingHandler{s: s}
	s.SetHandler(h)
	buf := make([]byte, 8)
	s.Read("ctx", SharedBase+16, buf)
	if len(h.faults) != 1 || h.faults[0].write {
		t.Fatalf("faults = %+v, want one read fault", h.faults)
	}
	if s.ReadFaults != 1 || s.WriteFaults != 0 {
		t.Errorf("counters = %d/%d, want 1/0", s.ReadFaults, s.WriteFaults)
	}
	// Second read: no further fault.
	s.Read("ctx", SharedBase+16, buf)
	if len(h.faults) != 1 {
		t.Errorf("second read faulted again: %+v", h.faults)
	}
}

func TestWriteFaultOnReadOnlyPage(t *testing.T) {
	s := newTestSpace()
	h := &recordingHandler{s: s}
	s.SetHandler(h)
	mapZero(s, SharedBase, ProtRead)
	s.Write(nil, SharedBase+4, []byte{1, 2, 3, 4})
	if len(h.faults) != 1 || !h.faults[0].write {
		t.Fatalf("faults = %+v, want one write fault", h.faults)
	}
	if s.WriteFaults != 1 {
		t.Errorf("WriteFaults = %d, want 1", s.WriteFaults)
	}
}

func TestProtNonePageFaultsOnRead(t *testing.T) {
	s := newTestSpace()
	h := &recordingHandler{s: s}
	s.SetHandler(h)
	mapZero(s, SharedBase, ProtNone)
	var b [4]byte
	s.Read(nil, SharedBase, b[:])
	if len(h.faults) != 1 {
		t.Fatalf("faults = %+v, want 1", h.faults)
	}
}

func TestFaultWithNoHandlerPanics(t *testing.T) {
	s := newTestSpace()
	defer func() {
		if recover() == nil {
			t.Error("unhandled fault did not panic")
		}
	}()
	var b [4]byte
	s.Read(nil, SharedBase, b[:])
}

// brokenHandler never establishes access.
type brokenHandler struct{}

func (brokenHandler) HandleFault(ctx any, base Addr, write bool) {}

func TestBrokenHandlerDetected(t *testing.T) {
	s := newTestSpace()
	s.SetHandler(brokenHandler{})
	defer func() {
		if recover() == nil {
			t.Error("broken handler did not panic")
		}
	}()
	var b [4]byte
	s.Read(nil, SharedBase, b[:])
}

// revokingHandler resolves a fault on the second page the way the runtime
// can while it yields inside one: it serves the FIRST page away (unmaps
// it, keeping the buffer that was mapped) and only then grants the second.
// Space.Slice existed for this hazard; Read and Write meet it by finishing
// with a page before they ask for the next.
type revokingHandler struct {
	s        *Space
	revoked  []byte // page 0's buffer, which the revoker now owns
	atRevoke []byte // its contents at that moment
}

func (h *revokingHandler) HandleFault(ctx any, base Addr, write bool) {
	if base != SharedBase+DefaultPageSize {
		panic("revokingHandler: page 0 must not fault again")
	}
	pg, _ := h.s.Lookup(SharedBase)
	h.revoked = pg.Data
	h.atRevoke = append([]byte(nil), pg.Data...)
	h.s.Unmap(SharedBase)
	fresh := make([]byte, h.s.PageSize())
	for i := range fresh {
		fresh[i] = 0xcc
	}
	h.s.Map(base, fresh, ProtReadWrite)
}

func TestWriteCompletesWhenEarlierPageIsRevoked(t *testing.T) {
	s := newTestSpace()
	h := &revokingHandler{s: s}
	s.SetHandler(h)
	mapZero(s, SharedBase, ProtReadWrite)

	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s.Write(nil, SharedBase+DefaultPageSize-4, src)

	if s.WriteFaults != 1 || s.Mapped(SharedBase) {
		t.Fatalf("WriteFaults = %d, page 0 mapped = %v; want one fault, page 0 gone", s.WriteFaults, s.Mapped(SharedBase))
	}
	// Page 0's bytes were stored before page 1 faulted, so whoever took the
	// page took them with it, and nothing reached its buffer afterwards.
	if got := h.atRevoke[DefaultPageSize-4:]; !bytes.Equal(got, src[:4]) {
		t.Errorf("page 0 tail when revoked = % x, want % x", got, src[:4])
	}
	if !bytes.Equal(h.revoked, h.atRevoke) {
		t.Error("page 0's buffer was written after it was revoked")
	}
	pg1, _ := s.Lookup(SharedBase + DefaultPageSize)
	if !bytes.Equal(pg1.Data[:4], src[4:]) || pg1.Data[4] != 0xcc {
		t.Errorf("page 1 head = % x, want % x then untouched", pg1.Data[:5], src[4:])
	}
}

func TestReadCompletesWhenEarlierPageIsRevoked(t *testing.T) {
	s := newTestSpace()
	h := &revokingHandler{s: s}
	s.SetHandler(h)
	pg0 := mapZero(s, SharedBase, ProtRead)
	copy(pg0.Data[DefaultPageSize-4:], []byte{1, 2, 3, 4})

	got := make([]byte, 8)
	s.Read(nil, SharedBase+DefaultPageSize-4, got)

	if want := []byte{1, 2, 3, 4, 0xcc, 0xcc, 0xcc, 0xcc}; !bytes.Equal(got, want) {
		t.Errorf("read % x, want % x", got, want)
	}
	if s.ReadFaults != 1 || s.Mapped(SharedBase) {
		t.Errorf("ReadFaults = %d, page 0 mapped = %v; want one fault, page 0 gone", s.ReadFaults, s.Mapped(SharedBase))
	}
}

func TestUnmapForgetsPage(t *testing.T) {
	s := newTestSpace()
	h := &recordingHandler{s: s}
	s.SetHandler(h)
	mapZero(s, SharedBase, ProtRead)
	s.Unmap(SharedBase)
	if s.Mapped(SharedBase) {
		t.Error("page still mapped after Unmap")
	}
	var b [4]byte
	s.Read(nil, SharedBase, b[:])
	if len(h.faults) != 1 {
		t.Error("access after unmap did not fault")
	}
}

func TestProtectUnmappedPanics(t *testing.T) {
	s := newTestSpace()
	defer func() {
		if recover() == nil {
			t.Error("Protect on unmapped page did not panic")
		}
	}()
	s.Protect(SharedBase, ProtRead)
}

func TestProtString(t *testing.T) {
	if ProtNone.String() != "none" || ProtRead.String() != "r" || ProtReadWrite.String() != "rw" {
		t.Error("Prot.String mismatch")
	}
}

func TestWordRoundTripProperty(t *testing.T) {
	s := newTestSpace()
	mapZero(s, SharedBase, ProtReadWrite)
	f := func(off uint16, v uint32) bool {
		addr := SharedBase + Addr(off%2048)*WordSize
		s.WriteWord(nil, addr, v)
		return s.ReadWord(nil, addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadWriteSpanProperty(t *testing.T) {
	s := newTestSpace()
	for i := 0; i < 4; i++ {
		mapZero(s, SharedBase+Addr(i*DefaultPageSize), ProtReadWrite)
	}
	f := func(off uint16, data []byte) bool {
		if len(data) > 2*DefaultPageSize {
			data = data[:2*DefaultPageSize]
		}
		addr := SharedBase + Addr(off%DefaultPageSize)
		s.Write(nil, addr, data)
		got := make([]byte, len(data))
		s.Read(nil, addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestViewFaultsEachPageOnceInOrder: a view over three pages faults each
// page once for read, in address order, and hands fn each page's segment
// before it faults the next — the order Read moves bytes in. Each segment
// aliases its page and ends where the view or the page does.
func TestViewFaultsEachPageOnceInOrder(t *testing.T) {
	s := newTestSpace()
	h := &recordingHandler{s: s}
	s.SetHandler(h)
	start := SharedBase + 100
	n := 2*DefaultPageSize + 50 // ends 150 bytes into page 2
	var segs [][]byte
	s.View("ctx", start, n, func(seg []byte) {
		segs = append(segs, seg)
		if len(h.faults) != len(segs) {
			t.Errorf("segment %d handed over with %d faults taken, want %d", len(segs)-1, len(h.faults), len(segs))
		}
	})
	if len(h.faults) != 3 {
		t.Fatalf("faults = %+v, want three", h.faults)
	}
	for i, f := range h.faults {
		if want := SharedBase + Addr(i*DefaultPageSize); f.base != want || f.write {
			t.Errorf("fault %d = %#x write=%v, want a read fault at %#x", i, f.base, f.write, want)
		}
	}
	if s.ReadFaults != 3 || s.WriteFaults != 0 {
		t.Errorf("counters = %d/%d, want 3/0", s.ReadFaults, s.WriteFaults)
	}
	wantLen := []int{DefaultPageSize - 100, DefaultPageSize, 150}
	if len(segs) != 3 {
		t.Fatalf("fn called %d times, want 3", len(segs))
	}
	for i, seg := range segs {
		pg, _ := s.Lookup(SharedBase + Addr(i*DefaultPageSize))
		off := 0
		if i == 0 {
			off = 100
		}
		if len(seg) != wantLen[i] || cap(seg) != len(seg) || &seg[0] != &pg.Data[off] {
			t.Errorf("segment %d: len %d cap %d aliases page at %v; want len %d, cap = len, aliasing page byte %d",
				i, len(seg), cap(seg), &seg[0] == &pg.Data[off], wantLen[i], off)
		}
	}
	// A second view over mapped pages faults nothing.
	s.View("ctx", start, n, func([]byte) {})
	if s.ReadFaults != 3 {
		t.Errorf("second view faulted: ReadFaults = %d", s.ReadFaults)
	}
}
