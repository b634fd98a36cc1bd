package rt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"

	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/wire"
)

// Mux is the Live runtime with every node pair's traffic multiplexed over
// a small fixed set of shared loopback TCP connections ("lanes"), the way
// a proxy core tunnels many sessions over one transport stream. Where a
// connection per node pair would be an O(n²) mesh, Mux keeps muxLanes()
// connections total: each frame carries its own (src,dst) route and every
// frame a node sends takes that node's lane, so a pair's frames share a
// single FIFO byte stream end to end and per-(src,dst) order is exactly
// what the socket gives. Unlike the simulator's serialized bus and Chan's
// synchronous enqueue, Mux does NOT order deliveries across different
// senders, so the runtime awaits update acknowledgements on it (see
// core.Config.AwaitUpdateAcks).
//
// Syscalls scale with wake-ups, not messages. A sender appends its frame
// to the lane's pending buffer and returns; the lane's writer goroutine
// puts everything queued by the time it runs into one Write, and the
// reader's buffered framer takes every frame the kernel holds out of one
// read. Frames queue while the previous Write is in the kernel, so the
// busier a lane is the more each syscall carries, and an idle lane
// still writes a lone frame at once: there is no timer and no window.
//
// The receive path is zero-copy past the socket: a frame's payload is
// read into a pooled buffer (wire.GetBufN) that becomes the envelope's
// frame (Envelope.Buf), undecoded; the consumer decodes it in place and
// releases it after dispatch, re-owning anything it retains past that
// (wire.Own / wire.OwnEntry). The sender's encode buffer goes back to the
// pool as soon as its bytes are in the lane's buffer: the receiver reads
// its own buffer, so handlers never alias sender memory.
//
// Frame format, length-prefixed on the wire:
//
//	[4B payload length][1B src][1B dst][8B sent-at nanos][payload = wire.Marshal]
type Mux struct {
	*Live
	ln    net.Listener
	lanes []*muxLane
	// loops counts the accept loop, every lane reader and every lane
	// writer: close shuts the sockets and waits for all of them.
	loops sync.WaitGroup
}

// muxLane is one shared connection and the frames waiting to go out on
// it. Procs of every node append here (the node monitor is released
// during delivery); the mutex keeps their frames whole and in order, and
// the lane's writer is the only goroutine that touches the socket.
type muxLane struct {
	c    net.Conn
	mu   sync.Mutex
	cond *sync.Cond // the writer parks here while pending is empty
	// pending holds the frames queued since the writer last took the
	// buffer, frames of them. The writer swaps it against the buffer it
	// has just written, so a lane owns two pooled buffers for its whole
	// life and a steady run allocates nothing per frame.
	pending *[]byte
	frames  int64
	// closed is set by close and by a failed Write: nothing more is
	// queued or written, and what is pending is dropped.
	closed bool
}

// muxFrameHeader is the fixed-size frame prefix: length, route, send
// stamp.
const muxFrameHeader = 4 + 1 + 1 + 8

// muxMaxFrame bounds a frame's payload. The largest legitimate message is
// a batch of page-sized updates, well under a megabyte; the cap exists so
// a corrupt length field cannot make the framer allocate gigabytes.
const muxMaxFrame = 16 << 20

// muxLaneBuffer is the size of a lane's two write buffers and of its
// reader's buffer: several page-sized frames or a few hundred small
// ones. A burst beyond it grows the write buffer, which keeps the size
// it grew to.
const muxLaneBuffer = 64 << 10

// muxLanes is the number of shared connections: fixed and small by
// design, so the connection count does not grow with the node count. A
// lane is one writer and one reader goroutine, so more lanes than
// processors adds no parallelism and only spreads the same frames over
// more syscalls; beyond four the per-lane goroutines cost more than the
// shorter queues save. Derived, not configured: nothing a caller knows
// would pick a better value than what the machine reports.
func muxLanes() int { return min(4, runtime.GOMAXPROCS(0)) }

// laneFor maps a sending node to its lane. Every frame of a directed
// pair takes the same lane, which is what preserves per-pair FIFO; every
// frame of one sender does too, so a burst to many destinations (a
// copyset query, a barrier fan-out) is contiguous in one byte stream and
// can leave in one Write.
func laneFor(src, lanes int) int { return src % lanes }

// NewMux builds the multiplexed loopback transport of n nodes: one
// listener and muxLanes() connections, regardless of n.
func NewMux(cost model.CostModel, n int) (*Mux, error) {
	t := newMux(cost, n)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rt: mux listen: %w", err)
	}
	t.ln = ln
	// The accept loop is counted in loops, so the nested loops.Add for
	// each inbound lane always fires while the counter is positive.
	t.loops.Add(1)
	go t.acceptLoop(ln)
	for i, lanes := 0, muxLanes(); i < lanes; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.close()
			return nil, fmt.Errorf("rt: mux dial lane %d: %w", i, err)
		}
		t.addLane(c)
	}
	return t, nil
}

// newMux is a mux transport with no listener and no lanes yet.
func newMux(cost model.CostModel, n int) *Mux {
	t := &Mux{Live: newLive("mux", cost, n)}
	t.Live.deliver = t.deliverMux
	t.Live.shutdown = t.close
	return t
}

// NewTCP builds the mux transport.
//
// Deprecated: the connection-per-pair "tcp" transport is gone; the name
// is kept for callers of the old constructor. Use NewMux.
// perf/replay.go is the one caller left; delete this with its rt.tcp.* rows.
func NewTCP(cost model.CostModel, n int) (*Mux, error) { return NewMux(cost, n) }

// addLane makes c the next lane and starts its writer.
func (t *Mux) addLane(c net.Conn) {
	lane := &muxLane{c: c, pending: wire.GetBufN(muxLaneBuffer)}
	lane.cond = sync.NewCond(&lane.mu)
	t.lanes = append(t.lanes, lane)
	t.loops.Add(1)
	go t.writeLoop(lane, len(t.lanes)-1)
}

// acceptLoop accepts the inbound side of each lane and starts its reader.
func (t *Mux) acceptLoop(ln net.Listener) {
	defer t.loops.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed at shutdown
		}
		t.loops.Add(1)
		go t.readLoop(c)
	}
}

// readLoop decodes frames from one lane and routes each to its
// destination inbox. Frames arrive for many destinations interleaved;
// the header says where each one goes.
func (t *Mux) readLoop(c net.Conn) {
	defer t.loops.Done()
	defer c.Close()
	f := newMuxFramer(c, t.Nodes())
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

// deliverMux queues the encoded message as a frame on the sender's lane
// and returns the encode buffer: the frame is built in the lane's buffer,
// so the one copy a message takes on its way out is the one into the
// bytes the socket is handed. Runs without any node monitor held.
func (t *Mux) deliverMux(env Envelope, bp *[]byte) {
	defer wire.PutBuf(bp)
	encoded := *bp
	lane := t.lanes[laneFor(env.Src, len(t.lanes))]
	lane.mu.Lock()
	defer lane.mu.Unlock()
	if lane.closed {
		return // the run is over or has failed; nobody will read it
	}
	t.inflight.Add(1)
	t.activity.Add(1)
	b := *lane.pending
	if len(b) == 0 {
		lane.cond.Signal()
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(encoded)))
	b = append(b, byte(env.Src), byte(env.Dst))
	b = binary.LittleEndian.AppendUint64(b, uint64(env.SentAt))
	*lane.pending = append(b, encoded...)
	lane.frames++
}

// writeLoop is a lane's writer: it parks while nothing is pending, then
// writes everything that is in one call, and exits when the lane closes
// or a Write fails (which fails the run).
func (t *Mux) writeLoop(lane *muxLane, id int) {
	defer t.loops.Done()
	out := wire.GetBufN(muxLaneBuffer)
	var failure error
	lane.mu.Lock()
	for {
		parked := false
		for len(*lane.pending) == 0 && !lane.closed {
			lane.cond.Wait()
			parked = true
		}
		if lane.closed {
			break
		}
		if parked {
			// The frame that woke us is often the first of several: its
			// sender has more destinations to go, or other senders are
			// runnable. Let them run once before taking the buffer. A
			// lone frame pays a reschedule, not a wait.
			lane.mu.Unlock()
			runtime.Gosched()
			lane.mu.Lock()
		}
		out, lane.pending = lane.pending, out
		*lane.pending = (*lane.pending)[:0]
		frames := lane.frames
		lane.frames = 0
		lane.mu.Unlock()
		_, err := lane.c.Write(*out)
		lane.mu.Lock()
		if err != nil {
			t.inflight.Add(-frames)
			if !lane.closed && !t.stopped.Load() {
				failure = fmt.Errorf("rt: mux send on lane %d: %w", id, err)
			}
			lane.closed = true
		}
	}
	// Whatever is still pending is dropped with the lane; closed keeps
	// deliverMux off the buffer from here on.
	t.inflight.Add(-lane.frames)
	wire.PutBuf(lane.pending)
	lane.mu.Unlock()
	wire.PutBuf(out)
	if failure != nil {
		t.fail(failure)
	}
}

// close stops the lane: its writer drops what is pending and exits, and
// closing the socket ends the reader at the other end.
func (lane *muxLane) close() {
	lane.mu.Lock()
	lane.closed = true
	lane.cond.Signal()
	lane.mu.Unlock()
	lane.c.Close()
}

// close tears down the listener and every lane and waits for the
// goroutines serving them.
func (t *Mux) close() {
	if t.ln != nil {
		t.ln.Close()
	}
	for _, lane := range t.lanes {
		lane.close()
	}
	t.loops.Wait()
}

// muxFramer reads and validates mux frames from a byte stream, each
// payload into a pooled buffer an envelope owns. It is deliberately
// separable from the transport (any io.Reader) so the fuzzer can drive it
// with corrupt, truncated, oversized and interleaved frames directly.
type muxFramer struct {
	r     *bufio.Reader
	nodes int
}

// newMuxFramer frames r through a buffer, so one read of the underlying
// stream brings in every frame it has ready, however many those are.
func newMuxFramer(r io.Reader, nodes int) *muxFramer {
	return &muxFramer{r: bufio.NewReaderSize(r, muxLaneBuffer), nodes: nodes}
}

// frame reads one frame. io.EOF is returned only at a clean frame
// boundary (stream closed between frames); every malformed input —
// truncated header or payload, out-of-range length, invalid route, a
// payload that is not a message kind — is a distinct error, never a
// panic, and never leaves a pooled buffer borrowed. The payload is not
// decoded: its receiver does that.
func (f *muxFramer) frame() (Envelope, error) {
	// The header is parsed where it lies in the read buffer.
	hdr, err := f.r.Peek(muxFrameHeader)
	if err != nil {
		if err == io.EOF {
			if len(hdr) == 0 {
				return Envelope{}, io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		return Envelope{}, fmt.Errorf("rt: mux frame header truncated: %w", err)
	}
	size := int(binary.LittleEndian.Uint32(hdr[0:4]))
	src := int(hdr[4])
	dst := int(hdr[5])
	sentAt := Time(binary.LittleEndian.Uint64(hdr[6:14]))
	f.r.Discard(muxFrameHeader) // cannot fail: Peek has just buffered these bytes
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
	if k := wire.FrameKind(*bp); !wire.ValidKind(k) {
		wire.PutBuf(bp)
		return Envelope{}, fmt.Errorf("rt: mux frame from node %d holds no message (kind %d)", src, k)
	}
	return Envelope{Src: src, Dst: dst, Bytes: size + network.HeaderBytes, SentAt: sentAt, Buf: bp}, nil
}
