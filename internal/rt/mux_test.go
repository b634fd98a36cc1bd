package rt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/vm"
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

// splitReaders are the ways a byte stream reaches the framer's buffer:
// whole, one byte per read, and half of what was asked per read, so
// headers and payloads straddle fills at every offset.
var splitReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one byte per read", iotest.OneByteReader},
	{"half per read", iotest.HalfReader},
	{"data with EOF", iotest.DataErrReader},
}

// TestLaneForPinsPairs checks the lane hash at every lane count the
// transport can derive: every directed pair maps to one stable in-range
// lane (per-pair FIFO depends on this), all of a sender's pairs share it
// (so a fan-out is one contiguous run of bytes), and the senders of a
// large machine spread across all lanes.
func TestLaneForPinsPairs(t *testing.T) {
	for lanes := 1; lanes <= 4; lanes++ {
		used := make(map[int]bool)
		for src := 0; src < network.MaxNodes; src++ {
			l := laneFor(src, lanes)
			if l < 0 || l >= lanes {
				t.Fatalf("laneFor(%d, %d) = %d, out of range", src, lanes, l)
			}
			if l != laneFor(src, lanes) {
				t.Fatalf("laneFor(%d, %d) not deterministic", src, lanes)
			}
			used[l] = true
		}
		if len(used) != lanes {
			t.Errorf("256 senders use %d of %d lanes", len(used), lanes)
		}
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
	var stream []byte
	for i, m := range msgs {
		stream = append(stream, muxFrameBytes(routes[i][0], routes[i][1], uint64(100+i), wire.Marshal(m))...)
	}
	for _, split := range splitReaders {
		f := newMuxFramer(split.wrap(bytes.NewReader(stream)), 8)
		for i, want := range msgs {
			env, err := f.frame()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", split.name, i, err)
			}
			if env.Src != routes[i][0] || env.Dst != routes[i][1] || env.SentAt != Time(100+i) {
				t.Errorf("%s: frame %d: route %d->%d at %d, want %d->%d at %d",
					split.name, i, env.Src, env.Dst, env.SentAt, routes[i][0], routes[i][1], 100+i)
			}
			if !env.Borrowed || env.Buf == nil {
				t.Errorf("%s: frame %d: envelope is not borrowed from a pooled buffer", split.name, i)
			}
			if !reflect.DeepEqual(env.Msg, want) {
				t.Errorf("%s: frame %d: decoded %#v, want %#v", split.name, i, env.Msg, want)
			}
			env.Release()
		}
		if _, err := f.frame(); err != io.EOF {
			t.Errorf("%s: exhausted stream: err = %v, want io.EOF", split.name, err)
		}
		if got := wire.Outstanding() - baseline; got != 0 {
			t.Fatalf("%s: %d pooled buffers still borrowed after round trip", split.name, got)
		}
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
			for _, split := range splitReaders {
				f := newMuxFramer(split.wrap(bytes.NewReader(tc.stream)), 4)
				var err error
				for err == nil {
					var env Envelope
					if env, err = f.frame(); err == nil {
						env.Release()
					}
				}
				if tc.wantEOF != (err == io.EOF) {
					t.Errorf("%s: err = %v, wantEOF = %v", split.name, err, tc.wantEOF)
				}
				if got := wire.Outstanding() - baseline; got != 0 {
					t.Fatalf("%s: %d pooled buffers leaked", split.name, got)
				}
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
		// However the bytes are cut into reads, the framer must accept
		// the same frames and stop at the same place.
		whole := -1
		for _, split := range splitReaders {
			fr := newMuxFramer(split.wrap(bytes.NewReader(data)), 4)
			frames := 0
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
				frames++
			}
			if whole < 0 {
				whole = frames
			}
			if frames != whole {
				t.Fatalf("%s: %d frames accepted, %d when read whole", split.name, frames, whole)
			}
			if got := wire.Outstanding() - baseline; got != 0 {
				t.Fatalf("%s: %d pooled buffers leaked", split.name, got)
			}
		}
	})
}

// TestMuxConnectionCount checks the tentpole scaling property: the
// transport's connection count is the derived lane count — at most four,
// at most one per processor — no matter how many nodes the machine has
// (a connection per directed pair would need n*(n-1)). It tears each
// transport down without Stop, so a lane writer that outlived its lane
// would hang here, and one that kept its buffers would show in the pool
// balance.
func TestMuxConnectionCount(t *testing.T) {
	baseline := wire.Outstanding()
	want := muxLanes()
	if want < 1 || want > 4 || want > runtime.GOMAXPROCS(0) {
		t.Fatalf("muxLanes() = %d with GOMAXPROCS %d", want, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{2, 16, 64} {
		tr, err := NewMux(model.Default(), n)
		if err != nil {
			t.Fatalf("NewMux(%d): %v", n, err)
		}
		if got := len(tr.lanes); got != want {
			t.Errorf("%d nodes: %d lanes, want %d", n, got, want)
		}
		tr.close()
	}
	if got := wire.Outstanding() - baseline; got != 0 {
		t.Fatalf("%d pooled buffers still borrowed after closing the lanes", got)
	}
}

// gateConn is the outbound side of a lane with a Write that blocks until
// the test lets it go. Only Write and Close are ever called on a lane's
// connection.
type gateConn struct {
	net.Conn
	entered chan struct{} // one token per Write that has started
	release chan error    // what the blocked Write returns
	closed  chan struct{}
	once    sync.Once

	mu     sync.Mutex
	writes [][]byte
}

func newGateConn() *gateConn {
	return &gateConn{
		entered: make(chan struct{}, 1),
		release: make(chan error),
		closed:  make(chan struct{}),
	}
}

func (c *gateConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	c.entered <- struct{}{}
	select {
	case err := <-c.release:
		if err != nil {
			return 0, err
		}
		return len(p), nil
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

func (c *gateConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *gateConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// gatedMux is a mux transport of n nodes whose one lane writes into a
// gateConn; nothing reads the other end.
func gatedMux(n int) (*Mux, *gateConn) {
	tr := newMux(model.Default(), n)
	c := newGateConn()
	tr.addLane(c)
	return tr, c
}

// seqMsg is the small message the lane tests send; seq comes back out of
// Old.
func seqMsg(src, seq int) wire.Message {
	return wire.ReduceReply{Addr: vm.Addr(0x10000 + src), Old: uint32(seq)}
}

// deliverSeq hands deliverMux one encoded seqMsg the way Live.Send does.
func deliverSeq(tr *Mux, src, dst, seq int) {
	m := seqMsg(src, seq)
	bp := wire.GetBufN(wire.Size(m))
	*bp = wire.AppendTo(*bp, m)
	tr.deliverMux(Envelope{Src: src, Dst: dst, Msg: m, SentAt: Time(seq)}, bp)
}

// TestMuxLaneCoalesces holds a lane's Write open and queues frames from
// several senders behind it: they must all leave in exactly one further
// Write, whole and in the order they were queued.
func TestMuxLaneCoalesces(t *testing.T) {
	const queued = 40
	baseline := wire.Outstanding()
	tr, c := gatedMux(4)
	deliverSeq(tr, 1, 0, 0)
	<-c.entered // the writer is inside Write with the first frame
	for seq := 1; seq <= queued; seq++ {
		deliverSeq(tr, seq%3+1, 0, seq)
	}
	if got := tr.inflight.Load(); got != queued+1 {
		t.Errorf("inflight = %d with %d frames unread, want %d", got, queued+1, queued+1)
	}
	c.release <- nil
	<-c.entered // the second Write
	c.release <- nil
	tr.close()

	writes := c.written()
	if len(writes) != 2 {
		t.Fatalf("%d frames behind a blocked Write left in %d Writes, want 1", queued, len(writes)-1)
	}
	f := newMuxFramer(bytes.NewReader(bytes.Join(writes, nil)), 4)
	for seq := 0; seq <= queued; seq++ {
		env, err := f.frame()
		if err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
		wantSrc := seq%3 + 1
		if got := int(env.Msg.(wire.ReduceReply).Old); got != seq || env.Src != wantSrc || env.SentAt != Time(seq) {
			t.Errorf("frame %d: seq %d from %d at %d, want seq %d from %d at %d",
				seq, got, env.Src, env.SentAt, seq, wantSrc, seq)
		}
		env.Release()
	}
	if _, err := f.frame(); err != io.EOF {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}
	if got := wire.Outstanding() - baseline; got != 0 {
		t.Fatalf("%d pooled buffers still borrowed", got)
	}
}

// TestMuxWriteErrorFailsRun makes the lane's Write fail: the run must end
// with the send error, every proc unwound, nothing left counted in
// flight and every pooled buffer back.
func TestMuxWriteErrorFailsRun(t *testing.T) {
	baseline := wire.Outstanding()
	tr, c := gatedMux(2)
	broken := errors.New("link down")
	tr.Spawn(1, "sender", func(p Proc) {
		for seq := 0; ; seq++ {
			tr.Send(p, 1, 0, seqMsg(1, seq))
		}
	})
	tr.Spawn(0, "receiver", func(p Proc) { tr.Recv(p, 0) })
	go func() {
		<-c.entered
		c.release <- broken
	}()
	err := tr.Run()
	if !errors.Is(err, broken) || !strings.HasPrefix(err.Error(), "rt: mux send") {
		t.Fatalf("Run = %v, want the rt: mux send error wrapping %v", err, broken)
	}
	if got := tr.inflight.Load(); got != 0 {
		t.Errorf("inflight = %d after a failed lane, want 0", got)
	}
	if got := wire.Outstanding() - baseline; got != 0 {
		t.Fatalf("%d pooled buffers still borrowed after a failed run", got)
	}
}

// TestMuxStopWithFramesPending stops a machine while frames sit in a
// lane behind a Write that never returns: shutdown drops them with the
// lane, the writer exits and the pool balance holds.
func TestMuxStopWithFramesPending(t *testing.T) {
	const queued = 16
	baseline := wire.Outstanding()
	tr, c := gatedMux(2)
	tr.Spawn(1, "sender", func(p Proc) {
		page := wire.ReadReply{Addr: 0x80001000, Owner: 1, Data: make([]byte, 8<<10)}
		tr.Send(p, 1, 0, page)
		<-c.entered // the first frame is in Write; the rest stay pending
		for seq := 0; seq < queued; seq++ {
			tr.Send(p, 1, 0, page)
		}
		tr.Stop()
	})
	if err := tr.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(c.written()); got != 1 {
		t.Errorf("%d Writes, want the one that never returned", got)
	}
	if got := tr.inflight.Load(); got != 0 {
		t.Errorf("inflight = %d after shutdown, want 0", got)
	}
	if got := wire.Outstanding() - baseline; got != 0 {
		t.Fatalf("%d pooled buffers still borrowed after stopping with frames pending", got)
	}
}
