package munin

import (
	"fmt"
	"sync/atomic"

	"munin/internal/core"
	"munin/internal/vm"
)

// Program is an immutable Munin program description: the shared variable
// declarations, locks, barriers and initial data of §3.1's shared data
// description table. Build it once — NewProgram, the Declare functions,
// CreateLock, CreateBarrier — and execute it any number of times with
// Run; every run gets a fresh machine, so the same Program can sweep
// transports, protocol overrides and processor counts (the paper's whole
// point: one shared-memory program under many consistency protocols).
//
// The first Run seals the Program: declaring after that panics, since the
// executed runs would otherwise disagree about the memory layout.
type Program struct {
	procs    int
	next     vm.Addr
	decls    []core.Decl
	locks    []core.LockDecl
	barriers []core.BarrierDecl
	assoc    map[int][]vm.Addr
	// byBase indexes each variable's object start addresses by the
	// variable's base address, and declIdx each object's position in
	// decls — maintained at declare time so layout queries and
	// initialization never rescan the whole declaration table.
	byBase  map[vm.Addr][]vm.Addr
	declIdx map[vm.Addr]int
	// simOnly, when set, is why the program's result is defined only on
	// the simulator (SimulatorOnly).
	simOnly string
	sealed  atomic.Bool
}

// NewProgram creates an empty program whose runs default to the given
// processor count. The count is validated at Run (1–MaxProcessors, overridable per
// run with WithProcessors), not here: configuration problems surface as
// errors from Run, never as panics.
func NewProgram(processors int) *Program {
	return &Program{
		procs:   processors,
		next:    vm.SharedBase,
		assoc:   make(map[int][]vm.Addr),
		byBase:  make(map[vm.Addr][]vm.Addr),
		declIdx: make(map[vm.Addr]int),
	}
}

// Processors returns the program's default processor count.
func (p *Program) Processors() int { return p.procs }

// SimulatorOnly marks a program whose result is defined only under the
// simulator's deterministic cost model — one that relies on modeled timing
// instead of synchronization. Run then refuses the live transports with a
// configuration error that gives why, before any node starts.
func (p *Program) SimulatorOnly(why string) {
	if p.sealed.Load() {
		panic("munin: SimulatorOnly after Run")
	}
	p.simOnly = why
}

// DeclOption adjusts a shared variable declaration.
type DeclOption func(*declSpec)

type declSpec struct {
	single bool
	lock   int
}

// WithSingleObject treats a large variable as a single object rather than
// breaking it into page-sized objects (the SingleObject hint, §2.5).
func WithSingleObject() DeclOption {
	return func(s *declSpec) { s.single = true }
}

// WithLock associates the variable with a lock (AssociateDataAndSynch,
// §2.5): lock grants carry the variable's data.
func WithLock(l Lock) DeclOption {
	return func(s *declSpec) { s.lock = l.id }
}

// declare lays out size bytes page-aligned, splitting into page-sized
// objects unless single, and records the declarations.
func (p *Program) declare(name string, size int, annot Annotation, opts ...DeclOption) vm.Addr {
	if p.sealed.Load() {
		panic("munin: declaration after Run")
	}
	if size <= 0 {
		panic(fmt.Sprintf("munin: variable %q has size %d", name, size))
	}
	spec := declSpec{lock: -1}
	for _, o := range opts {
		o(&spec)
	}
	size = (size + vm.WordSize - 1) / vm.WordSize * vm.WordSize
	start := p.next
	pageSize := vm.DefaultPageSize
	pages := (size + pageSize - 1) / pageSize
	p.next += vm.Addr(pages * pageSize)

	record := func(d core.Decl) {
		p.declIdx[d.Start] = len(p.decls)
		p.decls = append(p.decls, d)
		p.byBase[start] = append(p.byBase[start], d.Start)
	}
	if spec.single {
		record(core.Decl{
			Name: name, Start: start, Size: size, Annot: annot, Home: 0, Group: start, Synchq: spec.lock,
		})
	} else {
		for off, idx := 0, 0; off < size; off, idx = off+pageSize, idx+1 {
			chunk := pageSize
			if size-off < chunk {
				chunk = size - off
			}
			record(core.Decl{
				Name:  fmt.Sprintf("%s[%d]", name, idx),
				Start: start + vm.Addr(off), Size: chunk, Annot: annot, Home: 0, Group: start, Synchq: spec.lock,
			})
		}
	}
	if spec.lock >= 0 {
		p.assoc[spec.lock] = append(p.assoc[spec.lock], p.objectStarts(start)...)
	}
	return start
}

// objectStarts lists the object start addresses covering the variable
// declared at base — an index lookup, not a scan of every declaration.
func (p *Program) objectStarts(base vm.Addr) []vm.Addr {
	return p.byBase[base]
}

// objectSize returns the declared size of the object starting at start.
func (p *Program) objectSize(start vm.Addr) int {
	if i, ok := p.declIdx[start]; ok {
		return p.decls[i].Size
	}
	return 0
}

// setInit installs initial contents for the variable declared at base.
// The data must fit the declared size: spilling into the next variable's
// pages is a layout corruption, not an initialization.
func (p *Program) setInit(base vm.Addr, size int, name string, data []byte) {
	if p.sealed.Load() {
		panic("munin: initialization after Run")
	}
	if len(data) > size {
		panic(fmt.Sprintf("munin: initial data for %q is %d bytes, declared size %d",
			name, len(data), size))
	}
	off := 0
	for _, start := range p.byBase[base] {
		if off >= len(data) {
			break
		}
		d := &p.decls[p.declIdx[start]]
		n := d.Size
		if len(data)-off < n {
			n = len(data) - off
		}
		if d.Init == nil {
			d.Init = make([]byte, d.Size)
		}
		copy(d.Init, data[off:off+n])
		off += n
	}
}

// Lock is a distributed lock handle.
type Lock struct {
	p  *Program
	id int
}

// CreateLock declares a distributed queue-based lock (§3.4).
func (p *Program) CreateLock() Lock {
	if p.sealed.Load() {
		panic("munin: declaration after Run")
	}
	id := len(p.locks) + 1
	p.locks = append(p.locks, core.LockDecl{ID: id, Home: 0})
	return Lock{p: p, id: id}
}

// Acquire blocks t until it holds the lock.
func (l Lock) Acquire(t *Thread) { t.AcquireLock(l.id) }

// Release releases the lock, flushing the delayed update queue first.
func (l Lock) Release(t *Thread) { t.ReleaseLock(l.id) }

// Barrier is a barrier handle.
type Barrier struct {
	p  *Program
	id int
}

// CreateBarrier declares a barrier released when expected threads arrive.
func (p *Program) CreateBarrier(expected int) Barrier {
	if p.sealed.Load() {
		panic("munin: declaration after Run")
	}
	id := 1000 + len(p.barriers)
	p.barriers = append(p.barriers, core.BarrierDecl{ID: id, Home: 0, Expected: expected})
	return Barrier{p: p, id: id}
}

// Wait flushes the DUQ and blocks t until the barrier releases.
func (b Barrier) Wait(t *Thread) { t.WaitAtBarrier(b.id) }
