package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"munin/internal/vm"
)

// boxed adapts a typed accessor's result to a Message.
func boxed[T Message](m T, err error) (Message, error) { return m, err }

// readerAccessors maps every kind a Reader decodes to its typed accessor.
func readerAccessors(r *Reader) map[Kind]func([]byte) (Message, error) {
	return map[Kind]func([]byte) (Message, error){
		KindReadReq:           func(f []byte) (Message, error) { return boxed(r.ReadReq(f)) },
		KindReadReply:         func(f []byte) (Message, error) { return boxed(r.ReadReply(f)) },
		KindOwnReq:            func(f []byte) (Message, error) { return boxed(r.OwnReq(f)) },
		KindOwnReply:          func(f []byte) (Message, error) { return boxed(r.OwnReply(f)) },
		KindInvalidate:        func(f []byte) (Message, error) { return boxed(r.Invalidate(f)) },
		KindInvalidateAck:     func(f []byte) (Message, error) { return boxed(r.InvalidateAck(f)) },
		KindMigrateReq:        func(f []byte) (Message, error) { return boxed(r.MigrateReq(f)) },
		KindMigrateReply:      func(f []byte) (Message, error) { return boxed(r.MigrateReply(f)) },
		KindUpdateBatch:       func(f []byte) (Message, error) { return boxed(r.UpdateBatch(f)) },
		KindUpdateAck:         func(f []byte) (Message, error) { return boxed(r.UpdateAck(f)) },
		KindCopysetQuery:      func(f []byte) (Message, error) { return boxed(r.CopysetQuery(f)) },
		KindCopysetReply:      func(f []byte) (Message, error) { return boxed(r.CopysetReply(f)) },
		KindReduceReq:         func(f []byte) (Message, error) { return boxed(r.ReduceReq(f)) },
		KindReduceReply:       func(f []byte) (Message, error) { return boxed(r.ReduceReply(f)) },
		KindLockAcq:           func(f []byte) (Message, error) { return boxed(r.LockAcq(f)) },
		KindLockGrant:         func(f []byte) (Message, error) { return boxed(r.LockGrant(f)) },
		KindBarrierArrive:     func(f []byte) (Message, error) { return boxed(r.BarrierArrive(f)) },
		KindBarrierRelease:    func(f []byte) (Message, error) { return boxed(r.BarrierRelease(f)) },
		KindDirReq:            func(f []byte) (Message, error) { return boxed(r.DirReq(f)) },
		KindDirReply:          func(f []byte) (Message, error) { return boxed(r.DirReply(f)) },
		KindPhaseChange:       func(f []byte) (Message, error) { return boxed(r.PhaseChange(f)) },
		KindChangeAnnot:       func(f []byte) (Message, error) { return boxed(r.ChangeAnnot(f)) },
		KindCopysetLookup:     func(f []byte) (Message, error) { return boxed(r.CopysetLookup(f)) },
		KindCopysetInfo:       func(f []byte) (Message, error) { return boxed(r.CopysetInfo(f)) },
		KindCopysetNotify:     func(f []byte) (Message, error) { return boxed(r.CopysetNotify(f)) },
		KindOwnNotify:         func(f []byte) (Message, error) { return boxed(r.OwnNotify(f)) },
		KindAdaptPropose:      func(f []byte) (Message, error) { return boxed(r.AdaptPropose(f)) },
		KindAdaptCommit:       func(f []byte) (Message, error) { return boxed(r.AdaptCommit(f)) },
		KindLrcLockAcq:        func(f []byte) (Message, error) { return boxed(r.LrcLockAcq(f)) },
		KindLrcLockGrant:      func(f []byte) (Message, error) { return boxed(r.LrcLockGrant(f)) },
		KindLrcBarrierArrive:  func(f []byte) (Message, error) { return boxed(r.LrcBarrierArrive(f)) },
		KindLrcBarrierRelease: func(f []byte) (Message, error) { return boxed(r.LrcBarrierRelease(f)) },
		KindLrcDiffReq:        func(f []byte) (Message, error) { return boxed(r.LrcDiffReq(f)) },
		KindLrcDiffResp:       func(f []byte) (Message, error) { return boxed(r.LrcDiffResp(f)) },
		KindLrcFetchReq:       func(f []byte) (Message, error) { return boxed(r.LrcFetchReq(f)) },
		KindLrcFetchResp:      func(f []byte) (Message, error) { return boxed(r.LrcFetchResp(f)) },
		KindLrcGC:             func(f []byte) (Message, error) { return boxed(r.LrcGC(f)) },
	}
}

// TestReaderMatchesUnmarshal: one reused Reader decodes randomized
// messages of every kind it serves, in an interleaved order, to exactly
// what Unmarshal decodes — whatever the frames before left in its arenas.
func TestReaderMatchesUnmarshal(t *testing.T) {
	var r Reader
	acc := readerAccessors(&r)
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 40; i++ {
		for k := KindReadReq; k < KindBatch; k++ {
			decode, ok := acc[k]
			if !ok {
				continue
			}
			frame := Marshal(randomMessage(rng, k))
			want, err := Unmarshal(frame)
			if err != nil {
				t.Fatalf("%v: Unmarshal: %v", k, err)
			}
			got, err := decode(frame)
			if err != nil {
				t.Fatalf("%v: Reader: %v", k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: Reader decoded\n %#v\nwant %#v", k, got, want)
			}
		}
	}
}

// TestReaderRejects: a Reader accessor fails with ErrCorrupt on a frame
// of another kind, a truncated frame and one with bytes left over.
func TestReaderRejects(t *testing.T) {
	var r Reader
	frame := Marshal(CopysetQuery{From: 3, Addrs: []vm.Addr{0x80000000, 0x80002000}})
	for name, f := range map[string][]byte{
		"other kind": Marshal(LockAcq{Lock: 1, Requester: 2}),
		"truncated":  frame[:len(frame)-1],
		"trailing":   append(append([]byte(nil), frame...), 0),
		"empty":      nil,
	} {
		if _, err := r.CopysetQuery(f); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if m, err := r.CopysetQuery(frame); err != nil || len(m.Addrs) != 2 {
		t.Errorf("a good frame after bad ones: %+v, %v", m, err)
	}
}

// TestForEachRiderRejects: a batch frame that does not hold its riders
// whole, holds more than them, or holds a rider of no valid kind or a
// batch, is corrupt, and is refused before any rider is visited.
func TestForEachRiderRejects(t *testing.T) {
	frame := Marshal(Batch{Msgs: []Message{LockAcq{Lock: 1}, UpdateAck{Count: 2}}})
	withRiderKind := func(k Kind) []byte {
		f := append([]byte(nil), frame...)
		f[len(f)-len(Marshal(UpdateAck{Count: 2}))] = byte(k)
		return f
	}
	for name, c := range map[string]struct {
		frame  []byte
		riders int
	}{
		"whole":        {frame, 2},
		"truncated":    {frame[:len(frame)-2], 0},
		"trailing":     {append(append([]byte(nil), frame...), 9), 0},
		"not batch":    {Marshal(LockAcq{Lock: 1}), 0},
		"nested batch": {withRiderKind(KindBatch), 0},
		"bad kind":     {withRiderKind(KindInvalid), 0},
	} {
		n := 0
		err := ForEachRider(c.frame, func([]byte) { n++ })
		if wantErr := name != "whole"; (err != nil) != wantErr {
			t.Errorf("%s: err = %v", name, err)
		}
		if n != c.riders {
			t.Errorf("%s: %d riders visited, want %d", name, n, c.riders)
		}
	}
}

// TestPoisonSpoilsKeptLists: with Poison on, a list a Reader handed out
// reads junk once the Reader decodes its next frame or is done with it
// (Done), as a byte view into a released buffer does; so does one cut
// from an array the arena has since outgrown.
func TestPoisonSpoilsKeptLists(t *testing.T) {
	Poison(true)
	defer Poison(false)
	var r Reader
	q, err := r.CopysetQuery(Marshal(CopysetQuery{From: 1, Addrs: []vm.Addr{0x80000000, 0x80002000}}))
	if err != nil {
		t.Fatal(err)
	}
	kept := q.Addrs
	if _, err := r.LockAcq(Marshal(LockAcq{Lock: 1})); err != nil {
		t.Fatal(err)
	}
	for _, a := range kept {
		if a != junkWord {
			t.Fatalf("a kept address list reads %#x after the next frame, want the poison %#x", kept, junkWord)
		}
	}
	g, err := r.LrcLockGrant(Marshal(LrcLockGrant{Lock: 1, VT: []uint32{3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	r.Done()
	if g.VT[0] != junkWord || g.VT[1] != junkWord {
		t.Fatalf("a kept timestamp reads %v after Done, want the poison %#x", g.VT, junkWord)
	}

	var a arena[uint32]
	small := a.take(2, true)
	big := a.take(64, true) // outgrows the array small was cut from
	small[0], big[0] = 1, 2
	a.spoil(junkWord)
	if small[0] != junkWord || big[0] != junkWord || len(a.spent) != 0 {
		t.Fatalf("after spoil: outgrown list %#x, current list %#x, %d arrays still held", small[0], big[0], len(a.spent))
	}
}

// BenchmarkReaderDecode measures the dispatcher's receive decode: the
// frames a lock ring's release moves, decoded by one reused Reader, the
// batch's riders iterated in place. Every case must report 0 allocs/op;
// the CI zero-copy receive gate fails otherwise.
func BenchmarkReaderDecode(b *testing.B) {
	diff := []byte{4, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	query := Marshal(CopysetQuery{From: 2, Addrs: []vm.Addr{0x80000000, 0x80002000, 0x80004000}})
	update := Marshal(UpdateBatch{From: 2, Entries: []UpdateEntry{{Addr: 0x80000000, Size: 8192, Diff: diff}}})
	acq := Marshal(LockAcq{Lock: 7, Requester: 3})
	batch := Marshal(Batch{Msgs: []Message{
		UpdateBatch{From: 2, Entries: []UpdateEntry{{Addr: 0x80000000, Size: 8192, Diff: diff}}},
		LockAcq{Lock: 7, Requester: 3},
	}})
	var r Reader
	sink := 0
	b.Run("CopysetQuery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := r.CopysetQuery(query)
			if err != nil {
				b.Fatal(err)
			}
			sink += len(m.Addrs)
		}
	})
	b.Run("UpdateBatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := r.UpdateBatch(update)
			if err != nil {
				b.Fatal(err)
			}
			sink += len(m.Entries[0].Diff)
		}
	})
	b.Run("LockAcq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := r.LockAcq(acq)
			if err != nil {
				b.Fatal(err)
			}
			sink += int(m.Lock)
		}
	})
	b.Run("Batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := ForEachRider(batch, func(rider []byte) {
				switch FrameKind(rider) {
				case KindUpdateBatch:
					m, err := r.UpdateBatch(rider)
					if err != nil {
						b.Fatal(err)
					}
					sink += len(m.Entries)
				case KindLockAcq:
					m, err := r.LockAcq(rider)
					if err != nil {
						b.Fatal(err)
					}
					sink += int(m.Lock)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	_ = sink
}
