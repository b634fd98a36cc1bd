package apps

// Demo workloads: small, screenful-sized programs built as reusable Apps
// so cmd/munin-run and the tests share one table-driven registry instead
// of each tool hard-coding its own. Every demo self-checks its output
// through App.Check, so tracing a protocol never silently traces a wrong
// run.

import (
	"fmt"

	"munin"
	"munin/internal/model"
	"munin/internal/protocol"
)

// DemoConfig parameterizes a registry workload.
type DemoConfig struct {
	// Procs is the number of processors (each demo states its minimum).
	Procs int
	// Model is the cost model (zero = default).
	Model model.CostModel
}

func (c DemoConfig) withDefaults() DemoConfig {
	if c.Model == (model.CostModel{}) {
		c.Model = model.Default()
	}
	return c
}

// Demo is one registry entry: a named, described workload constructor.
type Demo struct {
	// Name selects the demo (munin-run -app).
	Name string
	// Desc is the one-line description the registry listing prints.
	Desc string
	// MinProcs is the smallest processor count the demo runs on.
	MinProcs int
	// Adaptive marks demos that require the adaptive protocol engine
	// (the caller must run them with munin.WithAdaptive, and they cannot
	// run under the lazy engine — the engines are mutually exclusive).
	Adaptive bool
	// New builds the workload as a reusable App.
	New func(DemoConfig) (*App, error)
}

// Demos returns the workload registry in display order.
func Demos() []Demo {
	return []Demo{
		{
			Name:     "lock",
			Desc:     "one lock passed around every node; the grant carries the associated migratory counter (§2.5)",
			MinProcs: 2,
			New:      NewLockDemo,
		},
		{
			Name:     "migratory",
			Desc:     "a migratory object bouncing between nodes without a lock (ownership chases the accessor)",
			MinProcs: 2,
			New:      NewMigratoryDemo,
		},
		{
			Name:     "producer-consumer",
			Desc:     "node 0 produces a page the others consume each phase; the flush updates exactly the stable copyset",
			MinProcs: 2,
			New:      NewProducerConsumerDemo,
		},
		{
			Name:     "reduction",
			Desc:     "fetch-and-min against a fixed-owner global minimum (no page motion at all)",
			MinProcs: 2,
			New:      NewReductionDemo,
		},
		{
			Name:     "adaptive",
			Desc:     "an unhinted buffer starts conventional; the engine observes the ping-pong and switches it online",
			MinProcs: 2,
			Adaptive: true,
			New:      NewAdaptiveDemo,
		},
		{
			Name:     "pipeline",
			Desc:     "phase-changing sharing (producer-consumer then all-to-all); the engine re-annotates between phases",
			MinProcs: 4,
			Adaptive: true,
			New: func(c DemoConfig) (*App, error) {
				c = c.withDefaults()
				adaptive := protocol.Adaptive
				return NewPipeline(PipelineConfig{Procs: c.Procs, Override: &adaptive, Model: c.Model})
			},
		},
	}
}

// DemoByName finds a registry entry.
func DemoByName(name string) (Demo, error) {
	for _, d := range Demos() {
		if d.Name == name {
			return d, nil
		}
	}
	return Demo{}, fmt.Errorf("apps: unknown demo %q (run with -list for the registry)", name)
}

// NewLockDemo passes one lock around every node; each holder increments a
// migratory counter associated with the lock, so the grant messages carry
// the data (§2.5's AssociateDataAndSynch).
func NewLockDemo(c DemoConfig) (*App, error) {
	c = c.withDefaults()
	if c.Procs < 2 || c.Procs > munin.MaxProcessors {
		return nil, fmt.Errorf("apps: lock demo needs 2-%d processors, got %d", munin.MaxProcessors, c.Procs)
	}
	p := munin.NewProgram(c.Procs)
	l := p.CreateLock()
	ctr := munin.DeclareVar[uint32](p, "counter", munin.Migratory, munin.WithLock(l))
	done := p.CreateBarrier(c.Procs + 1)
	procs := c.Procs
	root := func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("worker%d", w), func(t *munin.Thread) {
				l.Acquire(t)
				ctr.Set(t, ctr.Get(t)+1)
				l.Release(t)
				done.Wait(t)
			})
		}
		done.Wait(root)
	}
	check := func(res *munin.Result) (uint32, error) {
		v, err := ctr.SnapshotAny(res)
		if err != nil {
			return 0, err
		}
		if v != uint32(procs) {
			return v, fmt.Errorf("apps: lock demo counter %d, want %d", v, procs)
		}
		return v, nil
	}
	return &App{Prog: p, Root: root, Check: check, Model: c.Model}, nil
}

// NewMigratoryDemo bounces a migratory object between nodes without a
// lock: each worker takes the object in turn, barrier-paced so exactly
// one node accesses it per phase.
func NewMigratoryDemo(c DemoConfig) (*App, error) {
	c = c.withDefaults()
	if c.Procs < 2 || c.Procs > munin.MaxProcessors {
		return nil, fmt.Errorf("apps: migratory demo needs 2-%d processors, got %d", munin.MaxProcessors, c.Procs)
	}
	p := munin.NewProgram(c.Procs)
	obj := munin.Declare[uint32](p, "token", 16, munin.Migratory)
	bar := p.CreateBarrier(c.Procs + 1)
	procs := c.Procs
	root := func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("worker%d", w), func(t *munin.Thread) {
				for turn := 0; turn < procs; turn++ {
					if turn == w {
						obj.Set(t, 0, obj.Get(t, 0)+1)
					}
					bar.Wait(t)
				}
			})
		}
		for turn := 0; turn < procs; turn++ {
			bar.Wait(root)
		}
	}
	check := func(res *munin.Result) (uint32, error) {
		snap, err := obj.SnapshotAny(res)
		if err != nil {
			return 0, err
		}
		if snap[0] != uint32(procs) {
			return snap[0], fmt.Errorf("apps: migratory demo token %d, want %d", snap[0], procs)
		}
		return snap[0], nil
	}
	return &App{Prog: p, Root: root, Check: check, Model: c.Model}, nil
}

// demoPhases is the round count of the producer-consumer and adaptive
// demos — enough phases for copysets to stabilize (and, adaptively, for
// the engine's profile to cross its switching threshold).
const demoPhases = 8

// demoExchange builds the shared producer-consumer skeleton of the
// phased demos: node 0 writes the first words of a page each phase, the
// other nodes read them back, with two barriers per phase. With prime
// set, every consumer reads the page once before the first phase,
// behind one more barrier, so the producer's first flush determines a
// stable copyset that already holds them.
func demoExchange(c DemoConfig, annot protocol.Annotation, prime bool) (*App, error) {
	if c.Procs < 2 || c.Procs > munin.MaxProcessors {
		return nil, fmt.Errorf("apps: demo needs 2-%d processors, got %d", munin.MaxProcessors, c.Procs)
	}
	p := munin.NewProgram(c.Procs)
	data := munin.Declare[uint32](p, "data", 512, annot)
	bar := p.CreateBarrier(c.Procs + 1)
	procs, phases := c.Procs, demoPhases
	barriers := 2 * phases
	if prime {
		barriers++
	}
	root := func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("worker%d", w), func(t *munin.Thread) {
				if prime {
					if w != 0 {
						_ = data.Get(t, 0)
					}
					bar.Wait(t)
				}
				for ph := 0; ph < phases; ph++ {
					if w == 0 {
						for i := 0; i < 8; i++ {
							data.Set(t, i, uint32(ph*100+i))
						}
					}
					bar.Wait(t) // the producer's flush reaches the consumers
					if w != 0 {
						_ = data.Get(t, 0)
					}
					bar.Wait(t)
				}
			})
		}
		for i := 0; i < barriers; i++ {
			bar.Wait(root)
		}
	}
	check := func(res *munin.Result) (uint32, error) {
		snap, err := data.SnapshotAny(res)
		if err != nil {
			return 0, err
		}
		var sum uint32
		for i := 0; i < 8; i++ {
			want := uint32((phases-1)*100 + i)
			if snap[i] != want {
				return 0, fmt.Errorf("apps: demo data[%d] = %d, want %d", i, snap[i], want)
			}
			sum = sum*31 + snap[i]
		}
		return sum, nil
	}
	return &App{Prog: p, Root: root, Check: check, Model: c.Model}, nil
}

// NewProducerConsumerDemo has node 0 produce a page that the other nodes
// consume each phase. The consumers read the page once before the first
// phase: a producer_consumer copyset is fixed at the first flush, and a
// consumer outside it would violate the stable sharing pattern (§2.3.2).
// From then on the producer's flush updates exactly the consumers.
func NewProducerConsumerDemo(c DemoConfig) (*App, error) {
	return demoExchange(c.withDefaults(), protocol.ProducerConsumer, true)
}

// NewAdaptiveDemo is the same exchange declared with no hint at all
// (munin.Adaptive): it starts conventional, the engine observes the
// invalidate/refetch ping-pong, and the adapt-propose/adapt-commit
// exchange switching it to producer_consumer appears in the trace. Run
// it with munin.WithAdaptive (Demo.Adaptive marks this).
func NewAdaptiveDemo(c DemoConfig) (*App, error) {
	return demoExchange(c.withDefaults(), protocol.Adaptive, false)
}

// NewReductionDemo runs fetch-and-min against a fixed-owner global
// minimum: pure wire.ReduceReq/Reply traffic, no page motion at all.
func NewReductionDemo(c DemoConfig) (*App, error) {
	c = c.withDefaults()
	if c.Procs < 2 || c.Procs > munin.MaxProcessors {
		return nil, fmt.Errorf("apps: reduction demo needs 2-%d processors, got %d", munin.MaxProcessors, c.Procs)
	}
	p := munin.NewProgram(c.Procs)
	minv := munin.DeclareVar[int32](p, "globalmin", munin.Reduction)
	minv.Init(1 << 30)
	done := p.CreateBarrier(c.Procs + 1)
	procs := c.Procs
	root := func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("worker%d", w), func(t *munin.Thread) {
				minv.FetchAndMin(t, int32(100-10*w))
				done.Wait(t)
			})
		}
		done.Wait(root)
	}
	check := func(res *munin.Result) (uint32, error) {
		v, err := minv.SnapshotAny(res)
		if err != nil {
			return 0, err
		}
		want := int32(100 - 10*(procs-1))
		if v != want {
			return uint32(v), fmt.Errorf("apps: reduction demo minimum %d, want %d", v, want)
		}
		return uint32(v), nil
	}
	return &App{Prog: p, Root: root, Check: check, Model: c.Model}, nil
}
