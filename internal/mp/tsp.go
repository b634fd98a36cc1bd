package mp

import (
	"encoding/binary"
	"fmt"

	"munin/internal/apps"
	"munin/internal/model"
	"munin/internal/sim"
)

// Message tags for the TSP master/worker protocol.
const (
	tagWorkReq   = 0x30
	tagWorkGrant = 0x31
	tagBestNew   = 0x32
	tagBestBcast = 0x33
	tagTSPDone   = 0x34
)

// TSP is the hand-coded message-passing branch-and-bound: node 0 is the
// master handing out work units on request and broadcasting bound
// improvements; workers explore subtrees with the freshest bound they
// have heard.
func TSP(c apps.TSPConfig) (apps.RunResult, error) {
	if c.Cities < 4 || c.Cities > 16 || c.Procs <= 0 {
		return apps.RunResult{}, fmt.Errorf("mp: bad TSP config %+v", c)
	}
	if c.Model == (model.CostModel{}) {
		c.Model = model.Default()
	}
	cl := newCluster(c.Model, c.Procs)
	cities, procs := c.Cities, c.Procs

	u32 := func(v uint32) []byte {
		b := make([]byte, 4)
		binary.LittleEndian.PutUint32(b, v)
		return b
	}

	// Worker node w explores granted units. On a single-processor run
	// the master does all the work itself, with no messages at all.
	explore := func(p *sim.Proc, unit int, incumbent *int64, announce func(int64)) {
		visited := make([]bool, cities)
		visited[0] = true
		second := unit + 1
		visited[second] = true
		expanded := tspExpandLocal(cities, visited, []int{0, second},
			int64(apps.TSPDist(0, second)), incumbent, announce)
		p.Advance(sim.Time(expanded) * c.Model.MatMulOp * 8)
	}

	var best int64 = 1 << 30
	if procs == 1 {
		cl.sim.Spawn("mp-tsp-solo", func(p *sim.Proc) {
			for unit := 0; unit < cities-1; unit++ {
				explore(p, unit, &best, func(v int64) { best = v })
			}
		})
	} else {
		for w := 1; w < procs; w++ {
			w := w
			cl.sim.Spawn(fmt.Sprintf("mp-tsp-worker%d", w), func(p *sim.Proc) {
				incumbent := int64(1) << 30
				for {
					cl.send(p, w, 0, tagWorkReq, u32(uint32(w)))
					tag, payload := cl.recvMatch(p, w, func(tag uint32) bool {
						return tag == tagWorkGrant || tag == tagTSPDone || tag == tagBestBcast
					})
					for tag == tagBestBcast {
						if v := int64(binary.LittleEndian.Uint32(payload)); v < incumbent {
							incumbent = v
						}
						tag, payload = cl.recvMatch(p, w, func(tag uint32) bool {
							return tag == tagWorkGrant || tag == tagTSPDone || tag == tagBestBcast
						})
					}
					if tag == tagTSPDone {
						return
					}
					unit := int(binary.LittleEndian.Uint32(payload))
					// Drain any bound broadcasts that raced the grant.
					explore(p, unit, &incumbent, func(v int64) {
						incumbent = v
						cl.send(p, w, 0, tagBestNew, u32(uint32(v)))
					})
				}
			})
		}
		cl.sim.Spawn("mp-tsp-master", func(p *sim.Proc) {
			nextUnit, finished := 0, 0
			for finished < procs-1 {
				tag, payload := cl.recvMatch(p, 0, func(tag uint32) bool {
					return tag == tagWorkReq || tag == tagBestNew
				})
				switch tag {
				case tagBestNew:
					if v := int64(binary.LittleEndian.Uint32(payload)); v < best {
						best = v
						for w := 1; w < procs; w++ {
							cl.send(p, 0, w, tagBestBcast, u32(uint32(v)))
						}
					}
				case tagWorkReq:
					w := int(binary.LittleEndian.Uint32(payload))
					if nextUnit < cities-1 {
						cl.send(p, 0, w, tagWorkGrant, u32(uint32(nextUnit)))
						nextUnit++
					} else {
						cl.send(p, 0, w, tagTSPDone, nil)
						finished++
					}
				}
			}
		})
	}
	if err := cl.sim.Run(); err != nil {
		return apps.RunResult{}, fmt.Errorf("mp: tsp: %w", err)
	}
	return cl.result(uint32(best)), nil
}

// tspExpandLocal mirrors apps.tspExpand against the shared distance
// function, with a locally-cached incumbent.
func tspExpandLocal(cities int, visited []bool, path []int, cost int64,
	incumbent *int64, announce func(int64)) int {
	expanded := 1
	if cost >= *incumbent {
		return expanded
	}
	if len(path) == cities {
		total := cost + int64(apps.TSPDist(path[len(path)-1], path[0]))
		if total < *incumbent {
			*incumbent = total
			announce(total)
		}
		return expanded
	}
	last := path[len(path)-1]
	for next := 1; next < cities; next++ {
		if visited[next] {
			continue
		}
		visited[next] = true
		expanded += tspExpandLocal(cities, visited, append(path, next),
			cost+int64(apps.TSPDist(last, next)), incumbent, announce)
		visited[next] = false
	}
	return expanded
}
