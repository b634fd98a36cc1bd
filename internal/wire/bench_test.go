package wire

import (
	"testing"

	"munin/internal/vm"
)

// benchMessages are the hot-path shapes the transports actually carry:
// a small control message, a page-sized data reply, a diff-bearing
// update batch, a lazy grant with notices, and a 4-rider batch envelope.
func benchMessages() []Message {
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(i)
	}
	diff := []byte{4, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	return []Message{
		LockAcq{Lock: 7, Requester: 3},
		ReadReply{Addr: 0x80001000, Owner: 2, Data: page},
		UpdateBatch{From: 4, Entries: []UpdateEntry{
			{Addr: 0x80005000, Size: 8192, Diff: diff},
			{Addr: 0x80007000, Size: 8192, Diff: diff},
		}},
		LrcLockGrant{Lock: 1, VT: []uint32{3, 4, 0, 9, 1, 0, 2, 5},
			Notices: []LrcInterval{
				{Node: 1, Ivl: 4, Addrs: []vm.Addr{0x80001000, 0x80003000}},
				{Node: 3, Ivl: 9, Addrs: []vm.Addr{0x80001000}},
			}},
		Batch{Msgs: []Message{
			UpdateBatch{From: 2, Entries: []UpdateEntry{{Addr: 0x80005000, Size: 8192, Diff: diff}}},
			LockGrant{Lock: 1},
			LockOwnNotify{Lock: 1, Owner: 6},
			BarrierRelease{Barrier: 2},
		}},
	}
}

// BenchmarkAppendTo measures the zero-allocation encode fast path: a
// reused buffer, one encode per message shape per iteration. The CI
// bench job fails if allocs/op here leaves 0.
func BenchmarkAppendTo(b *testing.B) {
	msgs := benchMessages()
	buf := make([]byte, 0, 1<<15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			buf = AppendTo(buf[:0], m)
		}
	}
	if len(buf) == 0 {
		b.Fatal("empty encoding")
	}
}

// BenchmarkSize measures the computed-size path (no encoding at all).
// The CI bench job fails if allocs/op here leaves 0.
func BenchmarkSize(b *testing.B) {
	msgs := benchMessages()
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			total += Size(m)
		}
	}
	if total == 0 {
		b.Fatal("zero size")
	}
}

// BenchmarkMarshal measures the compatibility wrapper: exactly one
// exactly-sized allocation per message.
func BenchmarkMarshal(b *testing.B) {
	msgs := benchMessages()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			if len(Marshal(m)) == 0 {
				b.Fatal("empty encoding")
			}
		}
	}
}

// BenchmarkUnmarshal measures the decode path (allocates the decoded
// message — the structural floor, not a regression target).
func BenchmarkUnmarshal(b *testing.B) {
	var encs [][]byte
	for _, m := range benchMessages() {
		encs = append(encs, Marshal(m))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range encs {
			if _, err := Unmarshal(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPooledEncode measures the GetBufN/PutBuf scheme the transports
// use per send: pooled buffer of the message's size class, encode,
// release.
func BenchmarkPooledEncode(b *testing.B) {
	msgs := benchMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			bp := GetBufN(Size(m))
			*bp = AppendTo(*bp, m)
			PutBuf(bp)
		}
	}
}

// BenchmarkPooledEncodeLiteral encodes message literals built fresh in
// every iteration, as the runtime builds them where it sends: an update
// batch of one entry, a lock grant, a lock request and a barrier arrival.
// None may escape to the heap on the way through Encode — a kind read
// through the interface, or a panic formatting the message, would move
// every one there — so the CI bench job fails if allocs/op leaves 0.
func BenchmarkPooledEncodeLiteral(b *testing.B) {
	diff := []byte{4, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		from := uint8(i)
		PutBuf(Encode(UpdateBatch{From: from, Entries: []UpdateEntry{{Addr: 0x80005000, Size: 8192, Diff: diff}}}))
		PutBuf(Encode(LockGrant{Lock: uint32(i)}))
		PutBuf(Encode(LockAcq{Lock: uint32(i), Requester: from}))
		PutBuf(Encode(BarrierArrive{Barrier: uint32(i), From: from}))
	}
}
