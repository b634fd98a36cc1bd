// Package mp contains the hand-coded message-passing versions of the
// evaluation programs — the paper's "DM" (distributed memory) columns in
// Tables 3–5.
//
// These programs run on the same simulated network and cost model as the
// Munin versions and perform identical computations (same kernels, same
// per-row compute charges), but move data with explicit sends and
// receives, the way the paper's authors hand-coded them on the V kernel.
package mp

import (
	"encoding/binary"
	"fmt"
	"math"

	"munin"
	"munin/internal/apps"
	"munin/internal/model"
	"munin/internal/network"
	"munin/internal/sim"
	"munin/internal/wire"
)

// cluster is a message-passing machine: procs nodes on one network.
type cluster struct {
	sim  *sim.Sim
	net  *network.Network
	cost model.CostModel
	// stash holds messages received while waiting for a different tag
	// (out-of-order arrivals, e.g. a far worker's result landing during
	// a neighbour exchange).
	stash map[int][]wire.MPData
}

// result reports a finished run the way the Munin versions do: elapsed
// time, traffic and the output fingerprint. The DSM-only statistics stay
// zero.
func (cl *cluster) result(check uint32) apps.RunResult {
	st := cl.net.Stats()
	return apps.RunResult{
		Stats: munin.Stats{Elapsed: cl.sim.Now(), Messages: st.TotalMessages(), Bytes: st.TotalBytes()},
		Check: check,
	}
}

// newCluster builds a cluster of n nodes.
func newCluster(cost model.CostModel, n int) *cluster {
	s := sim.New()
	return &cluster{sim: s, net: network.New(s, cost, n), cost: cost,
		stash: make(map[int][]wire.MPData)}
}

// run runs the cluster to completion, then gives back the frames a run
// that ended early left on the wire or in inboxes.
func (c *cluster) run() error {
	err := c.sim.Run()
	c.net.Close()
	return err
}

// send transmits a tagged payload; the receive side pays a per-byte touch
// cost when it copies the data out (recvInto).
func (c *cluster) send(p *sim.Proc, src, dst int, tag uint32, payload []byte) {
	c.net.Send(p, src, dst, wire.MPData{Tag: tag, Payload: payload})
}

// recvMatch blocks until a message for node satisfying pred arrives,
// stashing any others, and returns its tag and payload. The receive copy
// is charged per byte.
func (c *cluster) recvMatch(p *sim.Proc, node int, pred func(tag uint32) bool) (uint32, []byte) {
	for i, m := range c.stash[node] {
		if pred(m.Tag) {
			c.stash[node] = append(c.stash[node][:i], c.stash[node][i+1:]...)
			p.Advance(sim.Time(len(m.Payload)) * c.cost.MemTouchPerByte)
			return m.Tag, m.Payload
		}
	}
	for {
		env := c.net.Recv(p, node)
		m, ok := env.Msg.(wire.MPData)
		if !ok {
			panic(fmt.Sprintf("mp: node %d expected MPData, got %T", node, env.Msg))
		}
		// The payload is a view into the frame: keep a copy, free the frame.
		m.Payload = append([]byte(nil), m.Payload...)
		env.Release()
		if pred(m.Tag) {
			p.Advance(sim.Time(len(m.Payload)) * c.cost.MemTouchPerByte)
			return m.Tag, m.Payload
		}
		c.stash[node] = append(c.stash[node], m)
	}
}

// recv blocks for the message carrying exactly wantTag.
func (c *cluster) recv(p *sim.Proc, node int, wantTag uint32) []byte {
	_, payload := c.recvMatch(p, node, func(tag uint32) bool { return tag == wantTag })
	return payload
}

// int32Bytes encodes a slice of int32 little-endian.
func int32Bytes(v []int32) []byte {
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(x))
	}
	return out
}

// bytesInt32 decodes little-endian int32s.
func bytesInt32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// float32Bytes encodes a slice of float32 little-endian.
func float32Bytes(v []float32) []byte {
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(x))
	}
	return out
}

// bytesFloat32 decodes little-endian float32s.
func bytesFloat32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}
