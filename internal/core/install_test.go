package core

import (
	"bytes"
	"testing"

	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/wire"
)

// This file tests that an install copies the bytes it is given into a
// page of the node's own: a read fetch's bytes arrive in a pooled reply
// frame that goes back once the fault is done, and an update's Full image
// may be parked and re-applied.

// replyTap is a simulator whose futures record the read reply frames
// that complete them: the very frames the faulting threads decode.
type replyTap struct {
	rt.Transport
	frames *[][]byte
}

func (tp replyTap) NewFuture(node int, name rt.Name) rt.Future {
	return tapFuture{tp.Transport.NewFuture(node, name), tp.frames}
}

type tapFuture struct {
	rt.Future
	frames *[][]byte
}

func (f tapFuture) Complete(v any) {
	if r, ok := v.(*reply); ok && wire.FrameKind(r.frame()) == wire.KindReadReply {
		*f.frames = append(*f.frames, r.frame())
	}
	f.Future.Complete(v)
}

// TestReadFetchCopiesReplyOnce: a remote read fault of a one-page object
// completes its future with the reply's frame and copies the fetched
// bytes out of it into the page, and the frame goes back to the pool:
// with returned buffers poisoned, the page still reads what the home
// served, and no pooled buffer stays borrowed.
func TestReadFetchCopiesReplyOnce(t *testing.T) {
	wire.Poison(true)
	defer wire.Poison(false)
	base := wire.Outstanding()
	decl := Decl{Name: "tbl", Start: page(0), Size: 8192, Annot: protocol.ReadOnly, Synchq: -1}
	decl.Init = words(11, 22, 33)
	var frames [][]byte
	cfg := Config{Processors: 2, Transport: replyTap{rt.NewSim(model.Default(), 2), &frames}}
	sys := NewSystem(cfg, []Decl{decl}, nil, nil)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "reader", func(w *Thread) { _ = w.ReadWord(page(0)) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("node 1 received %d read replies, want 1", len(frames))
	}
	pg, ok := sys.Node(1).Space().Lookup(page(0))
	if !ok {
		t.Fatal("node 1 has no page mapped after its read fault")
	}
	if word(pg.Data, 2) != 33 {
		t.Errorf("page word 2 = %d, want 33: the page aliases the returned reply frame", word(pg.Data, 2))
	}
	if frames[0][len(frames[0])-1] != 0xA5 {
		t.Error("the reply frame was not poisoned: it never went back to the pool")
	}
	if got := wire.Outstanding() - base; got != 0 {
		t.Errorf("%d pooled buffers still borrowed after the run", got)
	}
}

// TestFullUpdateInstallCopies: an update's Full image installed into an
// unmapped one-page object is copied into a page of the node's own; the
// page never aliases the entry's buffer.
func TestFullUpdateInstallCopies(t *testing.T) {
	n, e := heldCopy(t)
	n.dropObject(nil, e)
	if n.space.Mapped(e.Start) {
		t.Fatal("page still mapped after the drop")
	}
	full := make([]byte, 8192)
	for i := range full {
		full[i] = byte(i * 7)
	}
	n.applyUpdate(nil, e, wire.UpdateEntry{Addr: e.Start, Size: 8192, Full: full}, 0)
	pg, ok := n.space.Lookup(e.Start)
	if !ok || !e.Valid {
		t.Fatal("the Full update installed no valid copy")
	}
	if &pg.Data[0] == &full[0] {
		t.Error("the page adopted the update's Full buffer, want a copy")
	}
	if !bytes.Equal(pg.Data, full) {
		t.Error("the installed page differs from the Full image")
	}
}
