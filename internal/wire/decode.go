package wire

import (
	"encoding/binary"
	"fmt"

	"munin/internal/nodeset"
	"munin/internal/vm"
)

// Decoding. Every message kind has one decode function — the decoder
// method named after it below — and that is the one place its field order
// is read. Unmarshal and UnmarshalView box what it returns; a Reader's
// typed accessors return it as is.

// arena hands out the list storage of decoded messages. Every list is a
// capacity-clipped cut of buf, so appending to one decoded slice can
// never write into its neighbour. A one-shot decoder (Unmarshal,
// UnmarshalView) sizes each array exactly and never reuses one, so
// nothing it returns is shared with another message; a Reader's arenas
// grow to the largest frame seen and are reused for every frame.
type arena[T any] struct {
	buf []T
	off int
	// spent holds, while Poison is on, the used part of each array the
	// arena outgrew since its last rewind, for spoil to overwrite.
	spent [][]T
}

// reserve makes room for n more elements in one array. A list that holds
// several sublists (an interval list's addresses, a diff response's
// records and their timestamps) reserves their total after a walk over
// its headers, so the sublists share one array.
func (a *arena[T]) reserve(n int, grow bool) {
	if len(a.buf)-a.off >= n {
		return
	}
	size := n
	if grow {
		size = max(n, 2*len(a.buf))
	}
	if a.off > 0 && poison.Load() {
		a.spent = append(a.spent, a.buf[:a.off])
	}
	a.buf, a.off = make([]T, size), 0
}

// spoil overwrites everything handed out since the arena was last
// rewound with junk, including what was cut from arrays it has outgrown
// since (Poison), so a list kept past its frame reads junk.
func (a *arena[T]) spoil(junk T) {
	for _, s := range append(a.spent, a.buf[:a.off]) {
		for i := range s {
			s[i] = junk
		}
	}
	clear(a.spent)
	a.spent = a.spent[:0]
}

// take cuts the next n elements, zeroed (nil when n is 0).
func (a *arena[T]) take(n int, grow bool) []T {
	if n == 0 {
		return nil
	}
	a.reserve(n, grow)
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	clear(s)
	return s
}

type decoder struct {
	b   []byte
	err error
	// borrow makes byte payloads views into b instead of copies
	// (UnmarshalView, Reader); the caller owns b's lifetime.
	borrow bool
	// reuse marks a Reader's decoder: its arenas grow geometrically and
	// are rewound for every frame instead of being sized per message.
	reuse bool
	// The arenas the message's lists are cut from, one per element type.
	u32Arena   arena[uint32]
	addrArena  arena[vm.Addr]
	entryArena arena[UpdateEntry]
	recArena   arena[LrcRecord]
	ivlArena   arena[LrcInterval]
	dsetArena  arena[LrcDiffSet]
	csetArena  arena[nodeset.Set]
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// finish reports what went wrong decoding a kind message, if anything:
// a field that did not decode or bytes left over.
func (d *decoder) finish(kind Kind) error {
	if d.err != nil {
		return fmt.Errorf("%w: %v payload", d.err, kind)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %v", ErrCorrupt, len(d.b), kind)
	}
	return nil
}

// skip advances past n bytes.
func (d *decoder) skip(n int) {
	if d.err != nil || n < 0 || len(d.b) < n {
		d.fail()
		return
	}
	d.b = d.b[n:]
}
func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}
func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}
func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
func (d *decoder) addr() vm.Addr { return vm.Addr(d.u32()) }
func (d *decoder) boolean() bool { return d.u8() != 0 }

// bytes decodes a length-prefixed byte payload: a view into b when
// borrowing, a copy otherwise (nil when empty).
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || len(d.b) < n {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	var v []byte
	if d.borrow {
		v = d.b[:n:n]
	} else {
		v = append([]byte(nil), d.b[:n]...)
	}
	d.b = d.b[n:]
	return v
}
func (d *decoder) addrs() []vm.Addr {
	n := int(d.u32())
	if d.err != nil || len(d.b) < 4*n {
		d.fail()
		return nil
	}
	out := d.addrArena.take(n, d.reuse)
	for i := range out {
		out[i] = vm.Addr(binary.LittleEndian.Uint32(d.b[4*i:]))
	}
	d.b = d.b[4*n:]
	return out
}
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}
func (d *decoder) set() nodeset.Set {
	w := d.u64()
	if d.err != nil {
		return nodeset.Set{}
	}
	if w != setEscape {
		return nodeset.FromWord(w)
	}
	n := int(d.uvarint())
	if d.err != nil || n > len(d.b) { // each member id is ≥ 1 byte
		d.fail()
		return nodeset.Set{}
	}
	var s nodeset.Set
	for i := 0; i < n; i++ {
		id := d.uvarint()
		if d.err != nil || id >= maxWireNode {
			d.fail()
			return nodeset.Set{}
		}
		s = s.Add(int(id))
	}
	return s
}
func (d *decoder) csets() []nodeset.Set {
	n := int(d.u32())
	if d.err != nil || len(d.b) < 8*n { // each set is ≥ 8 bytes
		d.fail()
		return nil
	}
	out := d.csetArena.take(n, d.reuse)
	for i := range out {
		out[i] = d.set()
	}
	return out
}
func (d *decoder) updates() []UpdateEntry {
	n := int(d.u32())
	if d.err != nil || n > len(d.b) { // each entry is ≥ 13 bytes
		d.fail()
		return nil
	}
	out := d.entryArena.take(n, d.reuse)
	for i := range out {
		u := &out[i]
		u.Addr = d.addr()
		u.Size = d.u32()
		full := d.boolean()
		payload := d.bytes()
		if full {
			u.Full = payload
		} else {
			u.Diff = payload
		}
	}
	return out
}

func (d *decoder) u32s() []uint32 {
	n := int(d.u32())
	if d.err != nil || len(d.b) < 4*n {
		d.fail()
		return nil
	}
	out := d.u32Arena.take(n, d.reuse)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(d.b[4*i:])
	}
	d.b = d.b[4*n:]
	return out
}

// intervals decodes an interval list, cutting every interval's
// addresses from one array sized by a walk over the interval headers.
func (d *decoder) intervals() []LrcInterval {
	n := int(d.u32())
	if d.err != nil || n > len(d.b) { // each interval is >= 9 bytes
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	scan, addrs := decoder{b: d.b}, 0
	for i := 0; i < n && scan.err == nil; i++ {
		scan.skip(5) // node, interval
		k := int(scan.u32())
		scan.skip(4 * k)
		addrs += k
	}
	if scan.err == nil {
		d.addrArena.reserve(addrs, d.reuse)
	}
	out := d.ivlArena.take(n, d.reuse)
	for i := range out {
		out[i].Node = d.u8()
		out[i].Ivl = d.u32()
		out[i].Addrs = d.addrs()
	}
	return out
}
func (d *decoder) records() []LrcRecord {
	n := int(d.u32())
	if d.err != nil || n > len(d.b) { // each record is >= 17 bytes
		d.fail()
		return nil
	}
	out := d.recArena.take(n, d.reuse)
	for i := range out {
		r := &out[i]
		r.First = d.u32()
		r.Last = d.u32()
		r.VT = d.u32s()
		full := d.boolean()
		payload := d.bytes()
		if full {
			r.Full = payload
		} else {
			r.Diff = payload
		}
	}
	return out
}

// diffSets decodes a diff response's sets. A walk over the record
// headers first sizes the record and timestamp arrays, so every set's
// records, and every record's timestamp, come from one array each.
func (d *decoder) diffSets() []LrcDiffSet {
	n := int(d.u32())
	if d.err != nil || n > len(d.b) { // each set is >= 8 bytes
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	scan, recs, words := decoder{b: d.b}, 0, 0
	for i := 0; i < n && scan.err == nil; i++ {
		scan.skip(4) // address
		k := int(scan.u32())
		for r := 0; r < k && scan.err == nil; r++ {
			scan.skip(8) // first, last
			w := int(scan.u32())
			scan.skip(4*w + 1) // timestamp, full flag
			scan.skip(int(scan.u32()))
			words += w
		}
		recs += k
	}
	if scan.err == nil {
		d.recArena.reserve(recs, d.reuse)
		d.u32Arena.reserve(words, d.reuse)
	}
	out := d.dsetArena.take(n, d.reuse)
	for i := range out {
		out[i].Addr = d.addr()
		out[i].Records = d.records()
	}
	return out
}

// --- One decode function per kind: the fields in wire order ---

func (d *decoder) readReq() ReadReq {
	return ReadReq{Addr: d.addr(), Requester: d.u8(), Prefetch: d.boolean()}
}
func (d *decoder) readReply() ReadReply {
	return ReadReply{Addr: d.addr(), Owner: d.u8(), Data: d.bytes()}
}
func (d *decoder) ownReq() OwnReq { return OwnReq{Addr: d.addr(), Requester: d.u8()} }
func (d *decoder) ownReply() OwnReply {
	return OwnReply{Addr: d.addr(), Copyset: d.set(), Data: d.bytes()}
}
func (d *decoder) invalidate() Invalidate       { return Invalidate{Addr: d.addr(), NewOwner: d.u8()} }
func (d *decoder) invalidateAck() InvalidateAck { return InvalidateAck{Addr: d.addr()} }
func (d *decoder) migrateReq() MigrateReq       { return MigrateReq{Addr: d.addr(), Requester: d.u8()} }
func (d *decoder) migrateReply() MigrateReply   { return MigrateReply{Addr: d.addr(), Data: d.bytes()} }
func (d *decoder) updateBatch() UpdateBatch {
	return UpdateBatch{From: d.u8(), NeedAck: d.boolean(), Entries: d.updates()}
}
func (d *decoder) updateAck() UpdateAck       { return UpdateAck{Count: d.u32()} }
func (d *decoder) copysetQuery() CopysetQuery { return CopysetQuery{From: d.u8(), Addrs: d.addrs()} }
func (d *decoder) copysetReply() CopysetReply { return CopysetReply{Addrs: d.addrs()} }
func (d *decoder) reduceReq() ReduceReq {
	return ReduceReq{Addr: d.addr(), Off: d.u32(), Op: ReduceOp(d.u8()), Operand: d.u32(), Requester: d.u8()}
}
func (d *decoder) reduceReply() ReduceReply     { return ReduceReply{Addr: d.addr(), Old: d.u32()} }
func (d *decoder) lockAcq() LockAcq             { return LockAcq{Lock: d.u32(), Requester: d.u8()} }
func (d *decoder) lockSetSucc() LockSetSucc     { return LockSetSucc{Lock: d.u32(), Succ: d.u8()} }
func (d *decoder) lockOwnNotify() LockOwnNotify { return LockOwnNotify{Lock: d.u32(), Owner: d.u8()} }
func (d *decoder) lockGrant() LockGrant         { return LockGrant{Lock: d.u32(), Updates: d.updates()} }
func (d *decoder) barrierArrive() BarrierArrive { return BarrierArrive{Barrier: d.u32(), From: d.u8()} }
func (d *decoder) barrierRelease() BarrierRelease {
	return BarrierRelease{Barrier: d.u32(), Tree: d.boolean(), Subtree: d.bytes()}
}
func (d *decoder) dirReq() DirReq { return DirReq{Addr: d.addr()} }
func (d *decoder) dirReply() DirReply {
	return DirReply{Found: d.boolean(), Start: d.addr(), Size: d.u32(), Annot: d.u8(),
		Home: d.u8(), Owner: d.u8(), Group: d.addr(), Epoch: d.u32()}
}
func (d *decoder) phaseChange() PhaseChange { return PhaseChange{Addr: d.addr()} }
func (d *decoder) changeAnnot() ChangeAnnot { return ChangeAnnot{Addr: d.addr(), Annot: d.u8()} }
func (d *decoder) copysetLookup() CopysetLookup {
	return CopysetLookup{From: d.u8(), Addrs: d.addrs()}
}
func (d *decoder) copysetInfo() CopysetInfo { return CopysetInfo{Addrs: d.addrs(), Sets: d.csets()} }
func (d *decoder) copysetNotify() CopysetNotify {
	return CopysetNotify{Addr: d.addr(), Reader: d.u8()}
}
func (d *decoder) ownNotify() OwnNotify { return OwnNotify{Addr: d.addr(), Owner: d.u8()} }
func (d *decoder) adaptPropose() AdaptPropose {
	return AdaptPropose{Addr: d.addr(), Annot: d.u8(), Epoch: d.u32(),
		From: d.u8(), Events: d.u32(), Urgent: d.boolean()}
}
func (d *decoder) adaptCommit() AdaptCommit {
	return AdaptCommit{Addr: d.addr(), Annot: d.u8(), Epoch: d.u32()}
}
func (d *decoder) mpData() MPData { return MPData{Tag: d.u32(), Payload: d.bytes()} }
func (d *decoder) lrcLockAcq() LrcLockAcq {
	return LrcLockAcq{Lock: d.u32(), Requester: d.u8(), VT: d.u32s()}
}
func (d *decoder) lrcLockSetSucc() LrcLockSetSucc {
	return LrcLockSetSucc{Lock: d.u32(), Succ: d.u8(), VT: d.u32s()}
}
func (d *decoder) lrcLockGrant() LrcLockGrant {
	return LrcLockGrant{Lock: d.u32(), VT: d.u32s(), Notices: d.intervals(), Updates: d.updates()}
}
func (d *decoder) lrcBarrierArrive() LrcBarrierArrive {
	return LrcBarrierArrive{Barrier: d.u32(), From: d.u8(), VT: d.u32s(),
		Floors: d.u32s(), Notices: d.intervals()}
}
func (d *decoder) lrcBarrierRelease() LrcBarrierRelease {
	return LrcBarrierRelease{Barrier: d.u32(), Tree: d.boolean(), Subtree: d.bytes(),
		VT: d.u32s(), Notices: d.intervals()}
}
func (d *decoder) lrcDiffReq() LrcDiffReq {
	return LrcDiffReq{Requester: d.u8(), Token: d.u32(), Addrs: d.addrs(), After: d.u32s()}
}
func (d *decoder) lrcDiffResp() LrcDiffResp { return LrcDiffResp{Token: d.u32(), Sets: d.diffSets()} }
func (d *decoder) lrcFetchReq() LrcFetchReq {
	return LrcFetchReq{Addr: d.addr(), Requester: d.u8(), Token: d.u32()}
}
func (d *decoder) lrcFetchResp() LrcFetchResp {
	return LrcFetchResp{Addr: d.addr(), Token: d.u32(), Applied: d.u32s(), Data: d.bytes()}
}
func (d *decoder) lrcGC() LrcGC { return LrcGC{Floors: d.u32s()} }

// Unmarshal decodes a message produced by Marshal. The returned message
// owns all of its byte payloads (deep copies); b may be reused freely.
func Unmarshal(b []byte) (Message, error) {
	return unmarshal(b, false)
}

// UnmarshalView decodes like Unmarshal but byte payloads (update data,
// diffs, read-reply images, subtree lists) are views into b, not copies —
// the zero-copy receive path. The caller owns b's lifetime: the message
// and anything extracted from it must not outlive b unless re-owned with
// Own or OwnEntry first.
func UnmarshalView(b []byte) (Message, error) {
	return unmarshal(b, true)
}

func unmarshal(b []byte, borrow bool) (Message, error) {
	d := &decoder{b: b, borrow: borrow}
	kind := Kind(d.u8())
	var msg Message
	switch kind {
	case KindReadReq:
		msg = d.readReq()
	case KindReadReply:
		msg = d.readReply()
	case KindOwnReq:
		msg = d.ownReq()
	case KindOwnReply:
		msg = d.ownReply()
	case KindInvalidate:
		msg = d.invalidate()
	case KindInvalidateAck:
		msg = d.invalidateAck()
	case KindMigrateReq:
		msg = d.migrateReq()
	case KindMigrateReply:
		msg = d.migrateReply()
	case KindUpdateBatch:
		msg = d.updateBatch()
	case KindUpdateAck:
		msg = d.updateAck()
	case KindCopysetQuery:
		msg = d.copysetQuery()
	case KindCopysetReply:
		msg = d.copysetReply()
	case KindReduceReq:
		msg = d.reduceReq()
	case KindReduceReply:
		msg = d.reduceReply()
	case KindLockAcq:
		msg = d.lockAcq()
	case KindLockSetSucc:
		msg = d.lockSetSucc()
	case KindLockOwnNotify:
		msg = d.lockOwnNotify()
	case KindLockGrant:
		msg = d.lockGrant()
	case KindBarrierArrive:
		msg = d.barrierArrive()
	case KindBarrierRelease:
		msg = d.barrierRelease()
	case KindDirReq:
		msg = d.dirReq()
	case KindDirReply:
		msg = d.dirReply()
	case KindPhaseChange:
		msg = d.phaseChange()
	case KindChangeAnnot:
		msg = d.changeAnnot()
	case KindCopysetLookup:
		msg = d.copysetLookup()
	case KindCopysetInfo:
		msg = d.copysetInfo()
	case KindCopysetNotify:
		msg = d.copysetNotify()
	case KindOwnNotify:
		msg = d.ownNotify()
	case KindAdaptPropose:
		msg = d.adaptPropose()
	case KindAdaptCommit:
		msg = d.adaptCommit()
	case KindMPData:
		msg = d.mpData()
	case KindLrcLockAcq:
		msg = d.lrcLockAcq()
	case KindLrcLockSetSucc:
		msg = d.lrcLockSetSucc()
	case KindLrcLockGrant:
		msg = d.lrcLockGrant()
	case KindLrcBarrierArrive:
		msg = d.lrcBarrierArrive()
	case KindLrcBarrierRelease:
		msg = d.lrcBarrierRelease()
	case KindLrcDiffReq:
		msg = d.lrcDiffReq()
	case KindLrcDiffResp:
		msg = d.lrcDiffResp()
	case KindLrcFetchReq:
		msg = d.lrcFetchReq()
	case KindLrcFetchResp:
		msg = d.lrcFetchResp()
	case KindLrcGC:
		msg = d.lrcGC()
	case KindBatch:
		n := int(d.u32())
		if d.err != nil || n > len(d.b) { // each rider is >= 5 bytes framed
			d.fail()
			break
		}
		msgs := make([]Message, 0, n)
		for i := 0; i < n; i++ {
			ln := int(d.u32())
			if d.err != nil || ln < 1 || len(d.b) < ln {
				d.fail()
				break
			}
			sub, err := unmarshal(d.b[:ln], d.borrow)
			if err != nil {
				return nil, fmt.Errorf("%w: batch rider %d: %v", ErrCorrupt, i, err)
			}
			if _, nested := sub.(Batch); nested {
				return nil, fmt.Errorf("%w: batch inside a batch", ErrCorrupt)
			}
			d.b = d.b[ln:]
			msgs = append(msgs, sub)
		}
		msg = Batch{Msgs: msgs}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	if err := d.finish(kind); err != nil {
		return nil, err
	}
	return msg, nil
}

// Reader decodes frames in place, for one consumer at a time (a node's
// dispatcher, or a thread reading the reply it waited for), into typed
// message values instead of boxed Messages. Byte
// payloads are views into the frame, as with UnmarshalView, and every
// list — addresses, timestamps, update entries, intervals, records — is
// cut from the Reader's own arenas, which each accessor rewinds. A
// decoded value is therefore valid until its frame is released or the
// Reader decodes another frame, whichever comes first: a handler that
// keeps any part of it past that re-owns what it keeps. Once the arenas
// have grown to the largest frame seen, no accessor allocates. The zero
// Reader is ready to use.
type Reader struct{ d decoder }

// junkWord is what a poisoned arena's numbers are overwritten with.
const junkWord = 0xA5A5A5A5

// begin rewinds the arenas and positions the decoder past frame's kind
// byte, failing it when frame holds another kind.
func (r *Reader) begin(frame []byte, k Kind) *decoder {
	d := &r.d
	d.b, d.err, d.borrow, d.reuse = frame, nil, true, true
	if poison.Load() {
		d.spoil()
	}
	d.u32Arena.off, d.addrArena.off, d.entryArena.off = 0, 0, 0
	d.recArena.off, d.ivlArena.off, d.dsetArena.off, d.csetArena.off = 0, 0, 0, 0
	if FrameKind(frame) != k {
		d.fail()
	}
	d.skip(1)
	return d
}

// spoil overwrites every list the previous frame's decode handed out.
func (d *decoder) spoil() {
	d.u32Arena.spoil(junkWord)
	d.addrArena.spoil(junkWord)
	d.entryArena.spoil(UpdateEntry{Addr: junkWord, Size: junkWord})
	d.recArena.spoil(LrcRecord{First: junkWord, Last: junkWord})
	d.ivlArena.spoil(LrcInterval{Node: poisonByte, Ivl: junkWord})
	d.dsetArena.spoil(LrcDiffSet{Addr: junkWord})
	d.csetArena.spoil(nodeset.FromWord(^uint64(0)))
}

// Done ends the Reader's use of its last frame ahead of its next decode:
// under Poison it overwrites the lists it handed out now, as that decode
// would, so a consumer that gives its frame back (a reply's waiter) and
// kept a list past it reads junk at once. Otherwise it does nothing.
func (r *Reader) Done() {
	if poison.Load() {
		r.d.spoil()
	}
}

// read decodes frame, a k message, with decode.
func read[T any](r *Reader, frame []byte, k Kind, decode func(*decoder) T) (T, error) {
	d := r.begin(frame, k)
	m := decode(d)
	return m, d.finish(k)
}

// The typed accessors: each decodes a frame of its kind, and fails with
// ErrCorrupt on a frame of any other kind or one that does not decode.

func (r *Reader) ReadReq(f []byte) (ReadReq, error) {
	return read(r, f, KindReadReq, (*decoder).readReq)
}
func (r *Reader) ReadReply(f []byte) (ReadReply, error) {
	return read(r, f, KindReadReply, (*decoder).readReply)
}
func (r *Reader) OwnReq(f []byte) (OwnReq, error) { return read(r, f, KindOwnReq, (*decoder).ownReq) }
func (r *Reader) OwnReply(f []byte) (OwnReply, error) {
	return read(r, f, KindOwnReply, (*decoder).ownReply)
}
func (r *Reader) Invalidate(f []byte) (Invalidate, error) {
	return read(r, f, KindInvalidate, (*decoder).invalidate)
}
func (r *Reader) InvalidateAck(f []byte) (InvalidateAck, error) {
	return read(r, f, KindInvalidateAck, (*decoder).invalidateAck)
}
func (r *Reader) MigrateReq(f []byte) (MigrateReq, error) {
	return read(r, f, KindMigrateReq, (*decoder).migrateReq)
}
func (r *Reader) MigrateReply(f []byte) (MigrateReply, error) {
	return read(r, f, KindMigrateReply, (*decoder).migrateReply)
}
func (r *Reader) UpdateBatch(f []byte) (UpdateBatch, error) {
	return read(r, f, KindUpdateBatch, (*decoder).updateBatch)
}
func (r *Reader) UpdateAck(f []byte) (UpdateAck, error) {
	return read(r, f, KindUpdateAck, (*decoder).updateAck)
}
func (r *Reader) CopysetQuery(f []byte) (CopysetQuery, error) {
	return read(r, f, KindCopysetQuery, (*decoder).copysetQuery)
}
func (r *Reader) CopysetReply(f []byte) (CopysetReply, error) {
	return read(r, f, KindCopysetReply, (*decoder).copysetReply)
}
func (r *Reader) ReduceReq(f []byte) (ReduceReq, error) {
	return read(r, f, KindReduceReq, (*decoder).reduceReq)
}
func (r *Reader) ReduceReply(f []byte) (ReduceReply, error) {
	return read(r, f, KindReduceReply, (*decoder).reduceReply)
}
func (r *Reader) LockAcq(f []byte) (LockAcq, error) {
	return read(r, f, KindLockAcq, (*decoder).lockAcq)
}
func (r *Reader) LockGrant(f []byte) (LockGrant, error) {
	return read(r, f, KindLockGrant, (*decoder).lockGrant)
}
func (r *Reader) BarrierArrive(f []byte) (BarrierArrive, error) {
	return read(r, f, KindBarrierArrive, (*decoder).barrierArrive)
}
func (r *Reader) BarrierRelease(f []byte) (BarrierRelease, error) {
	return read(r, f, KindBarrierRelease, (*decoder).barrierRelease)
}
func (r *Reader) DirReq(f []byte) (DirReq, error) { return read(r, f, KindDirReq, (*decoder).dirReq) }
func (r *Reader) DirReply(f []byte) (DirReply, error) {
	return read(r, f, KindDirReply, (*decoder).dirReply)
}
func (r *Reader) PhaseChange(f []byte) (PhaseChange, error) {
	return read(r, f, KindPhaseChange, (*decoder).phaseChange)
}
func (r *Reader) ChangeAnnot(f []byte) (ChangeAnnot, error) {
	return read(r, f, KindChangeAnnot, (*decoder).changeAnnot)
}
func (r *Reader) CopysetLookup(f []byte) (CopysetLookup, error) {
	return read(r, f, KindCopysetLookup, (*decoder).copysetLookup)
}
func (r *Reader) CopysetInfo(f []byte) (CopysetInfo, error) {
	return read(r, f, KindCopysetInfo, (*decoder).copysetInfo)
}
func (r *Reader) CopysetNotify(f []byte) (CopysetNotify, error) {
	return read(r, f, KindCopysetNotify, (*decoder).copysetNotify)
}
func (r *Reader) OwnNotify(f []byte) (OwnNotify, error) {
	return read(r, f, KindOwnNotify, (*decoder).ownNotify)
}
func (r *Reader) AdaptPropose(f []byte) (AdaptPropose, error) {
	return read(r, f, KindAdaptPropose, (*decoder).adaptPropose)
}
func (r *Reader) AdaptCommit(f []byte) (AdaptCommit, error) {
	return read(r, f, KindAdaptCommit, (*decoder).adaptCommit)
}
func (r *Reader) LrcLockAcq(f []byte) (LrcLockAcq, error) {
	return read(r, f, KindLrcLockAcq, (*decoder).lrcLockAcq)
}
func (r *Reader) LrcLockGrant(f []byte) (LrcLockGrant, error) {
	return read(r, f, KindLrcLockGrant, (*decoder).lrcLockGrant)
}
func (r *Reader) LrcBarrierArrive(f []byte) (LrcBarrierArrive, error) {
	return read(r, f, KindLrcBarrierArrive, (*decoder).lrcBarrierArrive)
}
func (r *Reader) LrcBarrierRelease(f []byte) (LrcBarrierRelease, error) {
	return read(r, f, KindLrcBarrierRelease, (*decoder).lrcBarrierRelease)
}
func (r *Reader) LrcDiffReq(f []byte) (LrcDiffReq, error) {
	return read(r, f, KindLrcDiffReq, (*decoder).lrcDiffReq)
}
func (r *Reader) LrcDiffResp(f []byte) (LrcDiffResp, error) {
	return read(r, f, KindLrcDiffResp, (*decoder).lrcDiffResp)
}
func (r *Reader) LrcFetchReq(f []byte) (LrcFetchReq, error) {
	return read(r, f, KindLrcFetchReq, (*decoder).lrcFetchReq)
}
func (r *Reader) LrcFetchResp(f []byte) (LrcFetchResp, error) {
	return read(r, f, KindLrcFetchResp, (*decoder).lrcFetchResp)
}
func (r *Reader) LrcGC(f []byte) (LrcGC, error) { return read(r, f, KindLrcGC, (*decoder).lrcGC) }
