package core

import (
	"bytes"
	"testing"

	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/rt"
	"munin/internal/wire"
)

// This file tests which installs adopt the caller's buffer as the page
// and which copy it: a read fetch's bytes belong to the faulting node
// alone and become its page; an update's Full image may be parked and
// re-applied, so it is always copied.

// replyTap is a simulator whose futures record the read replies that
// complete them: the very values the faulting threads receive.
type replyTap struct {
	rt.Transport
	replies *[][]byte
}

func (tp replyTap) NewFuture(node int, name rt.Name) rt.Future {
	return tapFuture{tp.Transport.NewFuture(node, name), tp.replies}
}

type tapFuture struct {
	rt.Future
	replies *[][]byte
}

func (f tapFuture) Complete(v any) {
	if r, ok := v.(wire.ReadReply); ok {
		*f.replies = append(*f.replies, r.Data)
	}
	f.Future.Complete(v)
}

// TestReadFetchAdoptsReplyBuffer: a remote read fault of a one-page
// object maps the reply's own buffer as the page — the fetched bytes are
// copied once, out of the received frame, and never again at the
// install.
func TestReadFetchAdoptsReplyBuffer(t *testing.T) {
	decl := Decl{Name: "tbl", Start: page(0), Size: 8192, Annot: protocol.ReadOnly, Synchq: -1}
	decl.Init = words(11, 22, 33)
	var replies [][]byte
	cfg := Config{Processors: 2, Transport: replyTap{rt.NewSim(model.Default(), 2), &replies}}
	sys := NewSystem(cfg, []Decl{decl}, nil, nil)
	err := sys.Run(func(root *Thread) {
		root.Spawn(1, "reader", func(w *Thread) { _ = w.ReadWord(page(0)) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 {
		t.Fatalf("node 1 received %d read replies, want 1", len(replies))
	}
	pg, ok := sys.Node(1).Space().Lookup(page(0))
	if !ok {
		t.Fatal("node 1 has no page mapped after its read fault")
	}
	if &pg.Data[0] != &replies[0][0] {
		t.Error("the mapped page is a copy of the reply's buffer, want the buffer itself")
	}
	if word(pg.Data, 2) != 33 {
		t.Errorf("page word 2 = %d, want 33", word(pg.Data, 2))
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
