package rt

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/wire"
)

// Mux is the Live runtime with every node pair's traffic multiplexed over
// a small fixed set of shared loopback TCP connections ("lanes"), the way
// a proxy core tunnels many sessions over one transport stream. Where a
// connection per node pair would be an O(n²) mesh, Mux keeps muxLaneCount
// connections total: each frame carries its own (src,dst) route and a
// deterministic hash pins every directed pair to one lane, so a pair's
// frames share a single FIFO byte stream end to end and per-(src,dst)
// order is exactly what the socket gives. Unlike the simulator's
// serialized bus and Chan's synchronous enqueue, Mux does NOT order
// deliveries across different senders, so the runtime awaits update
// acknowledgements on it (see core.Config.AwaitUpdateAcks).
//
// The receive path is zero-copy: a frame's payload is read into a pooled
// buffer (wire.GetBufN) and decoded with wire.UnmarshalView, so the
// envelope's message borrows its byte payloads from the buffer instead of
// copying them. The envelope carries the buffer (Envelope.Borrowed/Buf)
// and the consumer releases it after dispatch; anything retained past
// dispatch is re-owned explicitly (wire.Own / wire.OwnEntry). The
// sender's encode buffer goes back to the pool once the socket write
// returns: the receiver decodes from its own buffer, so handlers never
// alias sender memory.
//
// Frame format, length-prefixed on the wire:
//
//	[4B payload length][1B src][1B dst][8B sent-at nanos][payload = wire.Marshal]
type Mux struct {
	*Live
	ln      net.Listener
	lanes   []*muxLane
	readers sync.WaitGroup
}

// muxLane serializes writers on one shared connection: procs of every
// node write frames here (the node monitor is released during delivery),
// and the mutex keeps their frames from interleaving.
type muxLane struct {
	mu sync.Mutex
	c  net.Conn
}

// muxFrameHeader is the fixed-size frame prefix: length, route, send
// stamp.
const muxFrameHeader = 4 + 1 + 1 + 8

// muxMaxFrame bounds a frame's payload. The largest legitimate message is
// a batch of page-sized updates, well under a megabyte; the cap exists so
// a corrupt length field cannot make the framer allocate gigabytes.
const muxMaxFrame = 16 << 20

// muxLaneCount is the number of shared connections. Fixed and small by
// design: the transport's connection count must not grow with the node
// count.
const muxLaneCount = 4

// laneFor deterministically maps a directed pair to a lane. Every frame
// of the pair takes the same lane, which is what preserves per-pair FIFO.
func laneFor(src, dst, lanes int) int {
	return (src*network.MaxNodes + dst) % lanes
}

// NewMux builds the multiplexed loopback transport of n nodes: one
// listener and muxLaneCount connections, regardless of n.
func NewMux(cost model.CostModel, n int) (*Mux, error) {
	t := &Mux{Live: newLive("mux", cost, n)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rt: mux listen: %w", err)
	}
	t.ln = ln
	// The accept loop is counted in readers, so the nested readers.Add
	// for each inbound lane always fires while the counter is positive.
	t.readers.Add(1)
	go t.acceptLoop(ln)
	for i := 0; i < muxLaneCount; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.closeAll()
			return nil, fmt.Errorf("rt: mux dial lane %d: %w", i, err)
		}
		t.lanes = append(t.lanes, &muxLane{c: c})
	}
	t.Live.deliver = t.deliverMux
	t.Live.shutdown = func() {
		t.closeAll()
		t.readers.Wait()
	}
	return t, nil
}

// NewTCP builds the mux transport.
//
// Deprecated: the connection-per-pair "tcp" transport is gone; the name
// is kept for callers of the old constructor. Use NewMux.
func NewTCP(cost model.CostModel, n int) (*Mux, error) { return NewMux(cost, n) }

// acceptLoop accepts the inbound side of each lane and starts its reader.
func (t *Mux) acceptLoop(ln net.Listener) {
	defer t.readers.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed at shutdown
		}
		t.readers.Add(1)
		go t.readLoop(c)
	}
}

// readLoop decodes frames from one lane and routes each to its
// destination inbox. Frames arrive for many destinations interleaved;
// the header says where each one goes.
func (t *Mux) readLoop(c net.Conn) {
	defer t.readers.Done()
	f := &muxFramer{r: c, nodes: t.Nodes()}
	for {
		env, err := f.frame()
		if err != nil {
			if err != io.EOF && !t.stopped.Load() {
				t.fail(fmt.Errorf("rt: mux read: %w", err))
			}
			return
		}
		t.enqueue(env)
		t.inflight.Add(-1)
	}
}

// deliverMux frames the encoded message onto the pair's lane and returns
// the encode buffer once the write is done. Runs without any node monitor
// held; the lane mutex keeps concurrent senders from interleaving frames.
func (t *Mux) deliverMux(env Envelope, bp *[]byte) {
	defer wire.PutBuf(bp)
	encoded := *bp
	lane := t.lanes[laneFor(env.Src, env.Dst, len(t.lanes))]
	var hdr [muxFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(encoded)))
	hdr[4] = byte(env.Src)
	hdr[5] = byte(env.Dst)
	binary.LittleEndian.PutUint64(hdr[6:14], uint64(env.SentAt))
	// Frame in a pooled buffer sized for header plus payload: the Write
	// completes before this returns, so the bytes are dead on exit.
	fp := wire.GetBufN(muxFrameHeader + len(encoded))
	frame := append(append(*fp, hdr[:]...), encoded...)
	*fp = frame
	defer wire.PutBuf(fp)
	t.inflight.Add(1)
	t.activity.Add(1)
	lane.mu.Lock()
	_, err := lane.c.Write(frame)
	lane.mu.Unlock()
	if err != nil {
		t.inflight.Add(-1)
		if !t.stopped.Load() {
			t.fail(fmt.Errorf("rt: mux send %d->%d: %w", env.Src, env.Dst, err))
		}
	}
}

// closeAll tears down the listener and every lane.
func (t *Mux) closeAll() {
	if t.ln != nil {
		t.ln.Close()
	}
	for _, lane := range t.lanes {
		lane.c.Close()
	}
}

// muxFramer reads and validates mux frames from a byte stream, decoding
// each payload zero-copy into a borrowed envelope. It is deliberately
// separable from the transport (any io.Reader) so the fuzzer can drive it
// with corrupt, truncated, oversized and interleaved frames directly.
type muxFramer struct {
	r     io.Reader
	nodes int
}

// frame reads one frame. io.EOF is returned only at a clean frame
// boundary (stream closed between frames); every malformed input —
// truncated header or payload, out-of-range length, invalid route, a
// payload that does not decode — is a distinct error, never a panic, and
// never leaves a pooled buffer borrowed.
func (f *muxFramer) frame() (Envelope, error) {
	var hdr [muxFrameHeader]byte
	if _, err := io.ReadFull(f.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Envelope{}, io.EOF
		}
		return Envelope{}, fmt.Errorf("rt: mux frame header truncated: %w", err)
	}
	size := int(binary.LittleEndian.Uint32(hdr[0:4]))
	src := int(hdr[4])
	dst := int(hdr[5])
	sentAt := Time(binary.LittleEndian.Uint64(hdr[6:14]))
	if size < 1 || size > muxMaxFrame {
		return Envelope{}, fmt.Errorf("rt: mux frame size %d out of range", size)
	}
	if src >= f.nodes || dst >= f.nodes || src == dst {
		return Envelope{}, fmt.Errorf("rt: mux frame with invalid route %d->%d", src, dst)
	}
	bp := wire.GetBufN(size)
	*bp = (*bp)[:size]
	if _, err := io.ReadFull(f.r, *bp); err != nil {
		wire.PutBuf(bp)
		return Envelope{}, fmt.Errorf("rt: mux frame payload truncated: %w", err)
	}
	env, err := borrow(Envelope{Src: src, Dst: dst, Bytes: size + network.HeaderBytes, SentAt: sentAt}, bp)
	if err != nil {
		return Envelope{}, fmt.Errorf("rt: mux frame from node %d does not decode: %w", src, err)
	}
	return env, nil
}
