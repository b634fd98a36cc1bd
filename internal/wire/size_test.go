package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"munin/internal/nodeset"
	"munin/internal/vm"
)

// randBytes returns a random payload, sometimes nil.
func randBytes(rng *rand.Rand, max int) []byte {
	n := rng.Intn(max + 1)
	if n == 0 && rng.Intn(2) == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// nonEmpty collapses empty to nil: an UpdateEntry/LrcRecord payload is
// either absent or carries bytes (the flag byte encodes Full != nil, so
// an empty non-nil Full has no canonical encoding — and no sender).
func nonEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

func randAddrs(rng *rand.Rand, max int) []vm.Addr {
	n := rng.Intn(max + 1)
	out := make([]vm.Addr, n)
	for i := range out {
		out[i] = vm.Addr(rng.Uint32())
	}
	return out
}

func randU32s(rng *rand.Rand, max int) []uint32 {
	n := rng.Intn(max + 1)
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32()
	}
	return out
}

// randSet returns a random copyset: usually inline (any 64-bit word,
// the old single-word regime), sometimes spilling past node 64 to
// exercise the extended escape encoding.
func randSet(rng *rand.Rand) nodeset.Set {
	s := nodeset.FromWord(rng.Uint64())
	if rng.Intn(3) == 0 {
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			s = s.Add(64 + rng.Intn(192))
		}
	}
	return s
}

func randSets(rng *rand.Rand, max int) []nodeset.Set {
	n := rng.Intn(max + 1)
	out := make([]nodeset.Set, n)
	for i := range out {
		out[i] = randSet(rng)
	}
	return out
}

func randSubtree(rng *rand.Rand) []uint8 {
	n := rng.Intn(5)
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(16))
	}
	return out
}

func randUpdates(rng *rand.Rand) []UpdateEntry {
	n := rng.Intn(4)
	out := make([]UpdateEntry, n)
	for i := range out {
		out[i] = UpdateEntry{Addr: vm.Addr(rng.Uint32()), Size: rng.Uint32() % 16384}
		if rng.Intn(2) == 0 {
			out[i].Full = nonEmpty(randBytes(rng, 64))
		} else {
			out[i].Diff = nonEmpty(randBytes(rng, 64))
		}
	}
	return out
}

func randIntervals(rng *rand.Rand) []LrcInterval {
	n := rng.Intn(4)
	out := make([]LrcInterval, n)
	for i := range out {
		out[i] = LrcInterval{Node: uint8(rng.Intn(16)), Ivl: rng.Uint32(), Addrs: randAddrs(rng, 4)}
	}
	return out
}

func randRecords(rng *rand.Rand) []LrcRecord {
	n := rng.Intn(3)
	out := make([]LrcRecord, n)
	for i := range out {
		out[i] = LrcRecord{First: rng.Uint32(), Last: rng.Uint32(), VT: randU32s(rng, 4)}
		if rng.Intn(2) == 0 {
			out[i].Full = nonEmpty(randBytes(rng, 32))
		} else {
			out[i].Diff = nonEmpty(randBytes(rng, 32))
		}
	}
	return out
}

func randDiffSets(rng *rand.Rand) []LrcDiffSet {
	n := rng.Intn(3)
	out := make([]LrcDiffSet, n)
	for i := range out {
		out[i] = LrcDiffSet{Addr: vm.Addr(rng.Uint32()), Records: randRecords(rng)}
	}
	return out
}

// randomMessage builds a randomized instance of the given kind. Batch
// riders are themselves randomized non-batch messages.
func randomMessage(rng *rand.Rand, k Kind) Message {
	switch k {
	case KindReadReq:
		return ReadReq{Addr: vm.Addr(rng.Uint32()), Requester: uint8(rng.Intn(16)), Prefetch: rng.Intn(2) == 0}
	case KindReadReply:
		return ReadReply{Addr: vm.Addr(rng.Uint32()), Owner: uint8(rng.Intn(16)), Data: randBytes(rng, 256)}
	case KindOwnReq:
		return OwnReq{Addr: vm.Addr(rng.Uint32()), Requester: uint8(rng.Intn(16))}
	case KindOwnReply:
		return OwnReply{Addr: vm.Addr(rng.Uint32()), Copyset: randSet(rng), Data: randBytes(rng, 256)}
	case KindInvalidate:
		return Invalidate{Addr: vm.Addr(rng.Uint32()), NewOwner: uint8(rng.Intn(16))}
	case KindInvalidateAck:
		return InvalidateAck{Addr: vm.Addr(rng.Uint32())}
	case KindMigrateReq:
		return MigrateReq{Addr: vm.Addr(rng.Uint32()), Requester: uint8(rng.Intn(16))}
	case KindMigrateReply:
		return MigrateReply{Addr: vm.Addr(rng.Uint32()), Data: randBytes(rng, 256)}
	case KindUpdateBatch:
		return UpdateBatch{From: uint8(rng.Intn(16)), NeedAck: rng.Intn(2) == 0, Entries: randUpdates(rng)}
	case KindUpdateAck:
		return UpdateAck{Count: rng.Uint32()}
	case KindCopysetQuery:
		return CopysetQuery{From: uint8(rng.Intn(16)), Addrs: randAddrs(rng, 6)}
	case KindCopysetReply:
		return CopysetReply{Addrs: randAddrs(rng, 6)}
	case KindReduceReq:
		return ReduceReq{Addr: vm.Addr(rng.Uint32()), Off: rng.Uint32(), Op: ReduceOp(rng.Intn(5)), Operand: rng.Uint32(), Requester: uint8(rng.Intn(16))}
	case KindReduceReply:
		return ReduceReply{Addr: vm.Addr(rng.Uint32()), Old: rng.Uint32()}
	case KindLockAcq:
		return LockAcq{Lock: rng.Uint32(), Requester: uint8(rng.Intn(16))}
	case KindLockSetSucc:
		return LockSetSucc{Lock: rng.Uint32(), Succ: uint8(rng.Intn(16))}
	case KindLockOwnNotify:
		return LockOwnNotify{Lock: rng.Uint32(), Owner: uint8(rng.Intn(16))}
	case KindLockGrant:
		return LockGrant{Lock: rng.Uint32(), Updates: randUpdates(rng)}
	case KindBarrierArrive:
		return BarrierArrive{Barrier: rng.Uint32(), From: uint8(rng.Intn(16))}
	case KindBarrierRelease:
		return BarrierRelease{Barrier: rng.Uint32(), Tree: rng.Intn(2) == 0, Subtree: randSubtree(rng)}
	case KindDirReq:
		return DirReq{Addr: vm.Addr(rng.Uint32())}
	case KindDirReply:
		return DirReply{Found: rng.Intn(2) == 0, Start: vm.Addr(rng.Uint32()), Size: rng.Uint32(),
			Annot: uint8(rng.Intn(9)), Home: uint8(rng.Intn(16)), Owner: uint8(rng.Intn(16)),
			Group: vm.Addr(rng.Uint32()), Epoch: rng.Uint32()}
	case KindPhaseChange:
		return PhaseChange{Addr: vm.Addr(rng.Uint32())}
	case KindChangeAnnot:
		return ChangeAnnot{Addr: vm.Addr(rng.Uint32()), Annot: uint8(rng.Intn(9))}
	case KindCopysetLookup:
		return CopysetLookup{From: uint8(rng.Intn(16)), Addrs: randAddrs(rng, 6)}
	case KindCopysetInfo:
		return CopysetInfo{Addrs: randAddrs(rng, 6), Sets: randSets(rng, 4)}
	case KindCopysetNotify:
		return CopysetNotify{Addr: vm.Addr(rng.Uint32()), Reader: uint8(rng.Intn(16))}
	case KindOwnNotify:
		return OwnNotify{Addr: vm.Addr(rng.Uint32()), Owner: uint8(rng.Intn(16))}
	case KindAdaptPropose:
		return AdaptPropose{Addr: vm.Addr(rng.Uint32()), Annot: uint8(rng.Intn(9)), Epoch: rng.Uint32(),
			From: uint8(rng.Intn(16)), Events: rng.Uint32(), Urgent: rng.Intn(2) == 0}
	case KindAdaptCommit:
		return AdaptCommit{Addr: vm.Addr(rng.Uint32()), Annot: uint8(rng.Intn(9)), Epoch: rng.Uint32()}
	case KindMPData:
		return MPData{Tag: rng.Uint32(), Payload: randBytes(rng, 256)}
	case KindLrcLockAcq:
		return LrcLockAcq{Lock: rng.Uint32(), Requester: uint8(rng.Intn(16)), VT: randU32s(rng, 8)}
	case KindLrcLockSetSucc:
		return LrcLockSetSucc{Lock: rng.Uint32(), Succ: uint8(rng.Intn(16)), VT: randU32s(rng, 8)}
	case KindLrcLockGrant:
		return LrcLockGrant{Lock: rng.Uint32(), VT: randU32s(rng, 8),
			Notices: randIntervals(rng), Updates: randUpdates(rng)}
	case KindLrcBarrierArrive:
		return LrcBarrierArrive{Barrier: rng.Uint32(), From: uint8(rng.Intn(16)), VT: randU32s(rng, 8),
			Floors: randU32s(rng, 8), Notices: randIntervals(rng)}
	case KindLrcBarrierRelease:
		return LrcBarrierRelease{Barrier: rng.Uint32(), Tree: rng.Intn(2) == 0, Subtree: randSubtree(rng),
			VT: randU32s(rng, 8), Notices: randIntervals(rng)}
	case KindLrcDiffReq:
		return LrcDiffReq{Requester: uint8(rng.Intn(16)), Token: rng.Uint32(), Addrs: randAddrs(rng, 6), After: randU32s(rng, 6)}
	case KindLrcDiffResp:
		return LrcDiffResp{Token: rng.Uint32(), Sets: randDiffSets(rng)}
	case KindLrcFetchReq:
		return LrcFetchReq{Addr: vm.Addr(rng.Uint32()), Requester: uint8(rng.Intn(16)), Token: rng.Uint32()}
	case KindLrcFetchResp:
		return LrcFetchResp{Addr: vm.Addr(rng.Uint32()), Token: rng.Uint32(), Applied: randU32s(rng, 8), Data: randBytes(rng, 256)}
	case KindLrcGC:
		return LrcGC{Floors: randU32s(rng, 8)}
	case KindBatch:
		riders := Kinds()
		n := 1 + rng.Intn(4)
		msgs := make([]Message, 0, n)
		for len(msgs) < n {
			rk := riders[rng.Intn(len(riders))]
			if rk == KindBatch {
				continue
			}
			msgs = append(msgs, randomMessage(rng, rk))
		}
		return Batch{Msgs: msgs}
	default:
		return nil
	}
}

// TestSizeMatchesMarshalProperty asserts, for every kind over randomized
// field values, that the computed Size equals the encoded length, the
// encoding round-trips, and re-encoding the decoded form is canonical
// (byte-identical). This is the property that lets the transports size
// and frame messages without marshaling twice.
func TestSizeMatchesMarshalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range Kinds() {
		for i := 0; i < 200; i++ {
			msg := randomMessage(rng, k)
			if msg == nil {
				t.Fatalf("randomMessage covers no kind %v", k)
			}
			enc := Marshal(msg)
			if got, want := Size(msg), len(enc); got != want {
				t.Fatalf("%v: Size = %d, len(Marshal) = %d (%#v)", k, got, want, msg)
			}
			dec, err := Unmarshal(enc)
			if err != nil {
				t.Fatalf("%v: Unmarshal: %v (%#v)", k, err, msg)
			}
			if !bytes.Equal(Marshal(dec), enc) {
				t.Fatalf("%v: re-encoding not canonical (%#v)", k, msg)
			}
		}
	}
}

// TestAppendToZeroAlloc pins the fast path's allocation count at zero:
// encoding into a buffer with spare capacity, and computing sizes, must
// not allocate. The CI bench job additionally uploads allocs/op for the
// microbenchmarks; this test is the hard gate.
func TestAppendToZeroAlloc(t *testing.T) {
	msgs := sampleMessages()
	buf := make([]byte, 0, 1<<16)
	allocs := testing.AllocsPerRun(100, func() {
		for _, m := range msgs {
			buf = AppendTo(buf[:0], m)
			if len(buf) == 0 {
				panic("empty encoding")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendTo allocated %.1f times per run over %d kinds, want 0", allocs, len(msgs))
	}
	allocs = testing.AllocsPerRun(100, func() {
		n := 0
		for _, m := range msgs {
			n += Size(m)
		}
		if n == 0 {
			panic("zero size")
		}
	})
	if allocs != 0 {
		t.Fatalf("Size allocated %.1f times per run, want 0", allocs)
	}
}

// TestMarshalSingleAlloc pins Marshal at exactly one allocation: the
// returned buffer, sized exactly by Size.
func TestMarshalSingleAlloc(t *testing.T) {
	for _, m := range sampleMessages() {
		m := m
		allocs := testing.AllocsPerRun(100, func() {
			b := Marshal(m)
			if cap(b) != len(b) {
				panic("Marshal over-allocated")
			}
		})
		if allocs != 1 {
			t.Fatalf("%v: Marshal allocated %.1f times, want exactly 1", m.Kind(), allocs)
		}
	}
}

// TestBatchRejectsNesting covers both directions of the no-nesting rule.
func TestBatchRejectsNesting(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Marshal accepted a nested batch")
		}
	}()
	Marshal(Batch{Msgs: []Message{Batch{Msgs: []Message{UpdateAck{Count: 1}}}}})
}

// TestBatchDecodeRejectsNesting hand-crafts a nested batch encoding and
// expects ErrCorrupt.
func TestBatchDecodeRejectsNesting(t *testing.T) {
	inner := Marshal(Batch{Msgs: []Message{UpdateAck{Count: 1}}})
	e := encoder{b: []byte{uint8(KindBatch)}}
	e.u32(1)
	e.u32(uint32(len(inner)))
	e.b = append(e.b, inner...)
	if _, err := Unmarshal(e.b); err == nil {
		t.Error("Unmarshal accepted a nested batch")
	}
}

// FuzzUnmarshal feeds arbitrary bytes to the decoder; any input it
// accepts must size, re-encode and re-decode consistently.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Marshal(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		enc := Marshal(msg)
		if Size(msg) != len(enc) {
			t.Fatalf("Size = %d, len(Marshal) = %d for %#v", Size(msg), len(enc), msg)
		}
		if _, err := Unmarshal(enc); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}
