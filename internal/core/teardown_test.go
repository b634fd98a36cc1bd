package core

import (
	"testing"

	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/wire"
)

// stopTap is a transport whose futures stop it once a reply completes
// them: the machine stops with that reply parked in the future, before
// or while its waiter wakes.
type stopTap struct{ rt.Transport }

func (tp stopTap) NewFuture(node int, name rt.Name) rt.Future {
	return stopFuture{tp.Transport.NewFuture(node, name), tp.Transport}
}

type stopFuture struct {
	rt.Future
	tr rt.Transport
}

func (f stopFuture) Complete(v any) {
	f.Future.Complete(v)
	if _, ok := v.(*reply); ok {
		f.tr.Stop()
	}
}

// TestStopWhileAwaitingReply stops a run, on the simulator and on the
// chan runtime, while a thread on node 1 waits on a read fault's reply
// from node 0: once with the reply already completing the thread's
// future, and once with the reply lost on the way, so that it never
// arrives. Either way the run ends without an error, the read never
// returns, and every pooled buffer the run borrowed is back.
func TestStopWhileAwaitingReply(t *testing.T) {
	for _, name := range []string{"sim", "chan"} {
		for _, tc := range []string{"completed", "never arrives"} {
			before := wire.Outstanding()
			tr := transportFor(t, name, 2)
			if tc == "completed" {
				tr = stopTap{tr}
			} else {
				tr.SetFaults(&rt.Faults{Drop: func(src, dst int, m wire.Message) bool {
					if _, ok := m.(wire.ReadReply); ok {
						tr.Stop()
						return true
					}
					return false
				}})
			}
			decl := Decl{Name: "tbl", Start: page(0), Size: 8192, Annot: protocol.ReadOnly, Synchq: -1}
			decl.Init = words(11, 22, 33)
			sys := NewSystem(Config{Processors: 2, Transport: tr}, []Decl{decl}, nil, nil)
			read := false
			err := sys.Run(func(root *Thread) {
				root.Spawn(1, "reader", func(w *Thread) {
					_ = w.ReadWord(page(0))
					read = true
				})
			})
			if err != nil {
				t.Errorf("%s/%s: %v", name, tc, err)
			}
			if read {
				t.Errorf("%s/%s: the read returned on a stopped machine", name, tc)
			}
			if d := wire.Outstanding() - before; d != 0 {
				t.Errorf("%s/%s: %d pooled buffers still borrowed after the run", name, tc, d)
			}
		}
	}
}
