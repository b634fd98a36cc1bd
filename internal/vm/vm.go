// Package vm simulates the paged virtual memory that the Munin prototype
// manipulated through its modified V kernel.
//
// The prototype registered the Munin root thread as the address space's
// page-fault handler and detected writes by write-protecting pages
// (§3.3). Go cannot portably take over SIGSEGV and edit page tables, so
// this package performs protection checks in software on the access path:
// each per-node Space holds a page table mapping shared addresses to local
// page copies with protection bits, and any access that misses or violates
// protection invokes the registered fault handler — the same trap →
// protocol action → map/unprotect → resume cycle as the prototype.
package vm

import (
	"encoding/binary"
	"fmt"
)

// Addr is an address in the 32-bit shared segment.
type Addr uint32

// SharedBase is where the linker-created shared data segment begins,
// mirroring the prototype's separate shared segment.
const SharedBase Addr = 0x8000_0000

// DefaultPageSize is the SUN-3 page size used by the prototype (8 KB).
const DefaultPageSize = 8192

// WordSize is the machine word the diff machinery operates on (32-bit).
const WordSize = 4

// Prot is a page protection level.
type Prot uint8

const (
	// ProtNone: the page is unmapped or invalid; any access faults.
	ProtNone Prot = iota
	// ProtRead: loads succeed, stores fault.
	ProtRead
	// ProtReadWrite: loads and stores succeed.
	ProtReadWrite
)

// String returns "none", "r" or "rw".
func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtRead:
		return "r"
	case ProtReadWrite:
		return "rw"
	default:
		return fmt.Sprintf("Prot(%d)", uint8(p))
	}
}

// Page is one local page copy. Data is the page image: 32-bit words are
// little-endian on every host, since diffs, wire payloads and final images
// are all made of these bytes.
type Page struct {
	Base Addr
	Data []byte
	Prot Prot
}

// FaultHandler receives protection faults. ctx is the opaque thread context
// the accessor supplied (the Munin runtime passes the faulting user
// thread). The handler must make the page accessible at the required level
// before returning; the access is then retried.
type FaultHandler interface {
	HandleFault(ctx any, base Addr, write bool)
}

// FaultHandlerFunc adapts a function to the FaultHandler interface.
type FaultHandlerFunc func(ctx any, base Addr, write bool)

// HandleFault calls f.
func (f FaultHandlerFunc) HandleFault(ctx any, base Addr, write bool) { f(ctx, base, write) }

// Space is one node's view of the shared segment: a page table of local
// copies. It is not safe for concurrent use; in the simulation only one
// process runs at a time.
type Space struct {
	pageSize int
	pages    map[Addr]*Page
	handler  FaultHandler

	// Faults counts handler invocations, by kind.
	ReadFaults  int
	WriteFaults int
}

// NewSpace returns an empty address space with the given page size
// (DefaultPageSize if 0).
func NewSpace(pageSize int) *Space {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize <= 0 || pageSize%WordSize != 0 {
		panic(fmt.Sprintf("vm: invalid page size %d", pageSize))
	}
	return &Space{pageSize: pageSize, pages: make(map[Addr]*Page)}
}

// PageSize returns the page size in bytes.
func (s *Space) PageSize() int { return s.pageSize }

// SetHandler installs the fault handler (the Munin root thread's
// registration with the kernel in the prototype).
func (s *Space) SetHandler(h FaultHandler) { s.handler = h }

// PageBase returns the base address of the page containing addr.
func (s *Space) PageBase(addr Addr) Addr {
	return addr - Addr(uint32(addr)%uint32(s.pageSize))
}

// PageSpan returns the base addresses of all pages covering [addr, addr+n).
func (s *Space) PageSpan(addr Addr, n int) []Addr {
	if n <= 0 {
		return nil
	}
	first := s.PageBase(addr)
	last := s.PageBase(addr + Addr(n-1))
	var bases []Addr
	for b := first; ; b += Addr(s.pageSize) {
		bases = append(bases, b)
		if b == last {
			break
		}
	}
	return bases
}

// Map installs a page copy at base with the given protection. data must be
// exactly one page long; the page adopts the slice (no copy).
func (s *Space) Map(base Addr, data []byte, prot Prot) *Page {
	if base != s.PageBase(base) {
		panic(fmt.Sprintf("vm: Map at non-page-aligned address %#x", base))
	}
	if len(data) != s.pageSize {
		panic(fmt.Sprintf("vm: Map with %d bytes, want page size %d", len(data), s.pageSize))
	}
	pg := &Page{Base: base, Data: data, Prot: prot}
	s.pages[base] = pg
	return pg
}

// Unmap removes the page at base, if mapped.
func (s *Space) Unmap(base Addr) { delete(s.pages, base) }

// Protect changes the protection of a mapped page. It panics if the page
// is not mapped: protection changes on absent pages are protocol bugs.
func (s *Space) Protect(base Addr, prot Prot) {
	pg, ok := s.pages[base]
	if !ok {
		panic(fmt.Sprintf("vm: Protect on unmapped page %#x", base))
	}
	pg.Prot = prot
}

// Lookup returns the page at base, if mapped.
func (s *Space) Lookup(base Addr) (*Page, bool) {
	pg, ok := s.pages[base]
	return pg, ok
}

// Mapped reports whether the page containing addr is mapped.
func (s *Space) Mapped(addr Addr) bool {
	_, ok := s.pages[s.PageBase(addr)]
	return ok
}

// page returns the page at base once it grants the access, driving the
// fault handler as needed. The hit path is one table lookup. A bounded
// retry count turns a handler that fails to establish access into a crash
// with a useful message instead of an infinite loop.
//
// The handler may yield to the runtime, which may revoke any OTHER page
// meanwhile; nothing runs between page's return and the caller's use of
// the result, so the bytes of an access move under the same monitor hold
// as the fault that made their page accessible. Callers therefore finish
// with one page before asking for the next and keep no page reference
// across a call to page.
func (s *Space) page(ctx any, base Addr, write bool) *Page {
	need := ProtRead
	if write {
		need = ProtReadWrite
	}
	for tries := 0; ; tries++ {
		if pg := s.pages[base]; pg != nil && pg.Prot >= need {
			return pg
		}
		if s.handler == nil {
			panic(fmt.Sprintf("vm: fault at %#x (write=%v) with no handler", base, write))
		}
		if tries == 8 {
			panic(fmt.Sprintf("vm: handler failed to resolve fault at %#x (write=%v) after 8 attempts", base, write))
		}
		if write {
			s.WriteFaults++
		} else {
			s.ReadFaults++
		}
		s.handler.HandleFault(ctx, base, write)
	}
}

// Read copies len(buf) bytes at addr into buf, one copy per page, faulting
// as needed.
func (s *Space) Read(ctx any, addr Addr, buf []byte) {
	for len(buf) > 0 {
		base := s.PageBase(addr)
		n := copy(buf, s.page(ctx, base, false).Data[addr-base:])
		buf, addr = buf[n:], addr+Addr(n)
	}
}

// View calls fn on the n bytes at addr where they lie, one segment per
// page in address order, faulting each page for read exactly as Read
// does: it finishes with one page (fn returns) before asking for the
// next. seg aliases the page copy and is valid only during fn; fn must
// not write it, and must not touch this Space (a fault there could revoke
// the very page fn is reading).
func (s *Space) View(ctx any, addr Addr, n int, fn func(seg []byte)) {
	for n > 0 {
		base := s.PageBase(addr)
		seg := s.page(ctx, base, false).Data[addr-base:]
		if len(seg) > n {
			seg = seg[:n]
		}
		fn(seg[:len(seg):len(seg)])
		n, addr = n-len(seg), addr+Addr(len(seg))
	}
}

// Write copies src to addr, one copy per page, faulting as needed.
func (s *Space) Write(ctx any, addr Addr, src []byte) {
	for len(src) > 0 {
		base := s.PageBase(addr)
		n := copy(s.page(ctx, base, true).Data[addr-base:], src)
		src, addr = src[n:], addr+Addr(n)
	}
}

// ReadWord returns the 32-bit word at addr (little-endian), faulting as
// needed. addr must be word-aligned, so the word lies within one page.
func (s *Space) ReadWord(ctx any, addr Addr) uint32 {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("vm: unaligned word read at %#x", addr))
	}
	base := s.PageBase(addr)
	return binary.LittleEndian.Uint32(s.page(ctx, base, false).Data[addr-base:])
}

// WriteWord stores a 32-bit word at addr (little-endian), faulting as
// needed. addr must be word-aligned, so the word lies within one page.
func (s *Space) WriteWord(ctx any, addr Addr, v uint32) {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("vm: unaligned word write at %#x", addr))
	}
	base := s.PageBase(addr)
	binary.LittleEndian.PutUint32(s.page(ctx, base, true).Data[addr-base:], v)
}
