package core

import (
	"bytes"
	"testing"

	"munin/internal/network"
	"munin/internal/protocol"
	"munin/internal/wire"
)

// This file tests which installs adopt the caller's buffer as the page
// and which copy it: a read fetch's bytes belong to the faulting node
// alone and become its page; an update's Full image may be parked and
// re-applied, so it is always copied.

// TestReadFetchAdoptsReplyBuffer: a remote read fault of a one-page
// object maps the reply's own buffer as the page — the fetched bytes are
// copied once, by the serve, and never again at the install.
func TestReadFetchAdoptsReplyBuffer(t *testing.T) {
	decl := Decl{Name: "tbl", Start: page(0), Size: 8192, Annot: protocol.ReadOnly, Synchq: -1}
	decl.Init = words(11, 22, 33)
	var replies [][]byte
	cfg := Config{Processors: 2, Trace: func(env network.Envelope) {
		if r, ok := env.Msg.(wire.ReadReply); ok && env.Dst == 1 {
			replies = append(replies, r.Data)
		}
	}}
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
