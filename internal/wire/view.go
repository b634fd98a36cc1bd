package wire

// Re-owning helpers for messages decoded with UnmarshalView: a borrowed
// message's byte payloads are views into the receive buffer, valid only
// until the buffer is released back to the pool. A handler that retains
// payload bytes past its dispatch (a reply parked on a future, an update
// entry stashed for a fetch in flight) re-owns exactly what it keeps.

// ownBytes deep-copies a possibly-borrowed byte slice (nil stays nil).
func ownBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// OwnEntry returns u with its payload (Diff or Full) deep-copied, safe
// to retain after the envelope it was decoded from is released.
func OwnEntry(u UpdateEntry) UpdateEntry {
	u.Diff = ownBytes(u.Diff)
	u.Full = ownBytes(u.Full)
	return u
}

// ownInto copies b onto the end of buf, returning the copy
// (capacity-clipped; nil stays nil) and the extended buf.
func ownInto(buf, b []byte) ([]byte, []byte) {
	if b == nil {
		return buf, nil
	}
	at := len(buf)
	buf = append(buf, b...)
	return buf, buf[at:len(buf):len(buf)]
}

// ownEntries re-owns the entries' payloads in place, all of them in one
// allocation.
func ownEntries(us []UpdateEntry) {
	n := 0
	for i := range us {
		n += len(us[i].Diff) + len(us[i].Full)
	}
	if n == 0 {
		return
	}
	buf := make([]byte, 0, n)
	for i := range us {
		buf, us[i].Diff = ownInto(buf, us[i].Diff)
		buf, us[i].Full = ownInto(buf, us[i].Full)
	}
}

// ownDiffSets re-owns every record payload of the sets in place, all of
// them in one allocation.
func ownDiffSets(sets []LrcDiffSet) {
	n := 0
	for i := range sets {
		for _, r := range sets[i].Records {
			n += len(r.Diff) + len(r.Full)
		}
	}
	if n == 0 {
		return
	}
	buf := make([]byte, 0, n)
	for i := range sets {
		for k := range sets[i].Records {
			r := &sets[i].Records[k]
			buf, r.Diff = ownInto(buf, r.Diff)
			buf, r.Full = ownInto(buf, r.Full)
		}
	}
}

// Own returns msg with every borrowed byte payload deep-copied. Messages
// without byte payloads pass through unchanged; a Batch re-owns each
// rider. The entry, record and rider slices themselves are
// decoder-allocated (never borrowed), so messages whose payloads sit in
// them — UpdateBatch, LockGrant, LrcLockGrant, LrcDiffResp, Batch — are
// re-owned in place, every payload in one allocation, and msg itself is
// returned: the interface value is not boxed again. The rest carry their
// payload in a field of the message value and come back re-boxed.
func Own(msg Message) Message {
	switch m := msg.(type) {
	case ReadReply:
		m.Data = ownBytes(m.Data)
		return m
	case OwnReply:
		m.Data = ownBytes(m.Data)
		return m
	case MigrateReply:
		m.Data = ownBytes(m.Data)
		return m
	case UpdateBatch:
		ownEntries(m.Entries)
	case LockGrant:
		ownEntries(m.Updates)
	case LrcLockGrant:
		ownEntries(m.Updates)
	case BarrierRelease:
		m.Subtree = append([]uint8(nil), m.Subtree...)
		return m
	case LrcBarrierRelease:
		m.Subtree = append([]uint8(nil), m.Subtree...)
		return m
	case MPData:
		m.Payload = ownBytes(m.Payload)
		return m
	case LrcDiffResp:
		ownDiffSets(m.Sets)
	case LrcFetchResp:
		m.Data = ownBytes(m.Data)
		return m
	case Batch:
		for i := range m.Msgs {
			m.Msgs[i] = Own(m.Msgs[i])
		}
	}
	return msg
}
