package rt

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/wire"
)

// muxFrameBytes encodes one wire-format frame the way deliverMux does.
func muxFrameBytes(src, dst int, sentAt uint64, payload []byte) []byte {
	var hdr [muxFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	hdr[4] = byte(src)
	hdr[5] = byte(dst)
	binary.LittleEndian.PutUint64(hdr[6:14], sentAt)
	return append(hdr[:], payload...)
}

// TestLaneForPinsPairs checks the lane hash: every directed pair maps to
// one stable in-range lane (per-pair FIFO depends on this), and the pairs
// of a large machine actually spread across all lanes.
func TestLaneForPinsPairs(t *testing.T) {
	used := make(map[int]bool)
	for src := 0; src < network.MaxNodes; src++ {
		for dst := 0; dst < network.MaxNodes; dst++ {
			l := laneFor(src, dst, muxLaneCount)
			if l < 0 || l >= muxLaneCount {
				t.Fatalf("laneFor(%d,%d) = %d, out of range", src, dst, l)
			}
			if l != laneFor(src, dst, muxLaneCount) {
				t.Fatalf("laneFor(%d,%d) not deterministic", src, dst)
			}
			used[l] = true
		}
	}
	if len(used) != muxLaneCount {
		t.Errorf("256-node pair space uses %d of %d lanes", len(used), muxLaneCount)
	}
}

// TestMuxFramerRoundTrip feeds the framer a stream of interleaved frames
// for several different pairs — exactly what a shared lane carries — and
// checks each envelope comes back with its own route, stamp and payload,
// borrowed from a pooled buffer that Release returns.
func TestMuxFramerRoundTrip(t *testing.T) {
	baseline := wire.Outstanding()
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(i * 7)
	}
	msgs := []wire.Message{
		wire.LockAcq{Lock: 3, Requester: 1},
		wire.ReadReply{Addr: 0x80001000, Owner: 2, Data: page},
		wire.UpdateBatch{From: 5, Entries: []wire.UpdateEntry{
			{Addr: 0x80002000, Size: 64, Full: bytes.Repeat([]byte{9}, 64)},
		}},
	}
	routes := [][2]int{{1, 0}, {2, 7}, {5, 3}}
	var stream bytes.Buffer
	for i, m := range msgs {
		stream.Write(muxFrameBytes(routes[i][0], routes[i][1], uint64(100+i), wire.Marshal(m)))
	}
	f := &muxFramer{r: &stream, nodes: 8}
	for i, want := range msgs {
		env, err := f.frame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.Src != routes[i][0] || env.Dst != routes[i][1] || env.SentAt != Time(100+i) {
			t.Errorf("frame %d: route %d->%d at %d, want %d->%d at %d",
				i, env.Src, env.Dst, env.SentAt, routes[i][0], routes[i][1], 100+i)
		}
		if !env.Borrowed || env.Buf == nil {
			t.Errorf("frame %d: envelope is not borrowed from a pooled buffer", i)
		}
		if !reflect.DeepEqual(env.Msg, want) {
			t.Errorf("frame %d: decoded %#v, want %#v", i, env.Msg, want)
		}
		env.Release()
	}
	if _, err := f.frame(); err != io.EOF {
		t.Errorf("exhausted stream: err = %v, want io.EOF", err)
	}
	if got := wire.Outstanding() - baseline; got != 0 {
		t.Fatalf("%d pooled buffers still borrowed after round trip", got)
	}
}

// TestMuxFramerErrors drives every malformed-input class through the
// framer: each must produce an error (io.EOF only at a clean frame
// boundary), never a panic, and never leak a pooled buffer.
func TestMuxFramerErrors(t *testing.T) {
	valid := wire.Marshal(wire.LockAcq{Lock: 1, Requester: 1})
	cases := []struct {
		name    string
		stream  []byte
		wantEOF bool
	}{
		{"empty stream", nil, true},
		{"truncated header", muxFrameBytes(1, 0, 0, valid)[:muxFrameHeader-3], false},
		{"truncated payload", muxFrameBytes(1, 0, 0, valid)[:muxFrameHeader+1], false},
		{"zero size", muxFrameBytes(1, 0, 0, nil), false},
		{"oversized", func() []byte {
			b := muxFrameBytes(1, 0, 0, valid)
			binary.LittleEndian.PutUint32(b[0:4], muxMaxFrame+1)
			return b
		}(), false},
		{"src out of range", muxFrameBytes(9, 0, 0, valid), false},
		{"dst out of range", muxFrameBytes(1, 9, 0, valid), false},
		{"self route", muxFrameBytes(1, 1, 0, valid), false},
		{"undecodable payload", muxFrameBytes(1, 0, 0, []byte{0xFF, 0xFF, 0xFF}), false},
		{"good frame then truncated", append(
			muxFrameBytes(1, 0, 0, valid),
			muxFrameBytes(2, 0, 0, valid)[:muxFrameHeader+2]...), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := wire.Outstanding()
			f := &muxFramer{r: bytes.NewReader(tc.stream), nodes: 4}
			var err error
			for err == nil {
				var env Envelope
				if env, err = f.frame(); err == nil {
					env.Release()
				}
			}
			if tc.wantEOF != (err == io.EOF) {
				t.Errorf("err = %v, wantEOF = %v", err, tc.wantEOF)
			}
			if got := wire.Outstanding() - baseline; got != 0 {
				t.Fatalf("%d pooled buffers leaked", got)
			}
		})
	}
}

// FuzzMuxFramer feeds arbitrary byte streams to the framer. The contract
// under fuzz: every input either yields valid envelopes or a descriptive
// error — no panics, no runaway allocation from corrupt length fields —
// and the pooled-buffer outstanding count is exactly balanced once every
// returned envelope is released.
func FuzzMuxFramer(f *testing.F) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	seeds := []wire.Message{
		wire.LockAcq{Lock: 3, Requester: 1},
		wire.ReadReply{Addr: 0x80001000, Owner: 2, Data: page},
		wire.UpdateBatch{From: 1, Entries: []wire.UpdateEntry{
			{Addr: 0x80002000, Size: 4096, Diff: []byte{1, 0, 0, 0, 2, 0, 0, 0, 42, 42}},
			{Addr: 0x80003000, Size: 64, Full: bytes.Repeat([]byte{5}, 64)},
		}},
		wire.Batch{Msgs: []wire.Message{
			wire.LockGrant{Lock: 3, Tail: 1},
			wire.ReduceReply{Addr: 0x10000, Old: 7},
		}},
	}
	var interleaved []byte
	for i, m := range seeds {
		frame := muxFrameBytes(1+i%3, (2+i)%4, uint64(i), wire.Marshal(m))
		f.Add(frame)
		interleaved = append(interleaved, frame...)
	}
	f.Add(interleaved)
	f.Add(interleaved[:len(interleaved)-5])           // truncated tail
	f.Add(muxFrameBytes(1, 1, 0, []byte{1}))          // self route
	f.Add(muxFrameBytes(200, 0, 0, []byte{1}))        // src out of range
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0})       // absurd length, short header
	f.Add(bytes.Repeat([]byte{0xEE}, muxFrameHeader)) // garbage header

	f.Fuzz(func(t *testing.T, data []byte) {
		baseline := wire.Outstanding()
		fr := &muxFramer{r: bytes.NewReader(data), nodes: 4}
		for {
			env, err := fr.frame()
			if err != nil {
				break
			}
			if env.Src < 0 || env.Src >= 4 || env.Dst < 0 || env.Dst >= 4 || env.Src == env.Dst {
				t.Fatalf("framer accepted invalid route %d->%d", env.Src, env.Dst)
			}
			if env.Msg == nil {
				t.Fatal("framer returned a nil message without error")
			}
			if !env.Borrowed || env.Buf == nil {
				t.Fatal("framer returned an unborrowed envelope")
			}
			env.Release()
		}
		if got := wire.Outstanding() - baseline; got != 0 {
			t.Fatalf("%d pooled buffers leaked", got)
		}
	})
}

// TestMuxConnectionCount checks the tentpole scaling property: the
// transport's connection count is fixed at muxLaneCount lanes no matter
// how many nodes the machine has (a connection per directed pair would
// need n*(n-1)).
func TestMuxConnectionCount(t *testing.T) {
	for _, n := range []int{2, 16, 64} {
		tr, err := NewMux(model.Default(), n)
		if err != nil {
			t.Fatalf("NewMux(%d): %v", n, err)
		}
		if got := len(tr.lanes); got != muxLaneCount {
			t.Errorf("%d nodes: %d lanes, want %d", n, got, muxLaneCount)
		}
		tr.closeAll()
		tr.readers.Wait()
	}
}
