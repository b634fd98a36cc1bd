package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"munin"
	"munin/internal/apps"
	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/sim"
	"munin/internal/wire"
)

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Name     string
	Elapsed  sim.Time
	Messages int
	Bytes    int
	// Detail is a per-study annotation (copyset messages, read misses
	// avoided, and so on).
	Detail string
}

// Ablation is one ablation study's result.
type Ablation struct {
	Title string
	Note  string
	Rows  []AblationRow
}

// Format prints the study.
func (a Ablation) Format(w io.Writer) {
	fmt.Fprintln(w, a.Title)
	if a.Note != "" {
		fmt.Fprintf(w, "  %s\n", a.Note)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "Configuration\tTotal (sec)\tMessages\tKBytes\tDetail\t\n")
	for _, r := range a.Rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%d\t%d\t%s\t\n",
			r.Name, r.Elapsed.Seconds(), r.Messages, r.Bytes/1024, r.Detail)
	}
	tw.Flush()
}

// AblationOpts sizes the ablation workloads. Zero values select sizes
// that finish quickly while keeping the paper-scale shapes.
type AblationOpts struct {
	Procs             int
	Rows, Cols, Iters int
	Rounds            int
	Model             model.CostModel
}

func (o AblationOpts) withDefaults() AblationOpts {
	if o.Procs == 0 {
		o.Procs = 8
	}
	if o.Rows == 0 {
		o.Rows = 128
	}
	if o.Cols == 0 {
		o.Cols = 2048
	}
	if o.Iters == 0 {
		o.Iters = 20
	}
	if o.Rounds == 0 {
		o.Rounds = 25
	}
	if o.Model == (model.CostModel{}) {
		o.Model = model.Default()
	}
	return o
}

// copysetTraffic sums the copyset-determination messages of a run.
func copysetTraffic(r apps.RunResult) int {
	return r.PerKind[wire.KindCopysetQuery] + r.PerKind[wire.KindCopysetReply] +
		r.PerKind[wire.KindCopysetLookup] + r.PerKind[wire.KindCopysetInfo]
}

// RunAblationA1 quantifies update-versus-invalidate propagation for
// fine-grained sharing: SOR under the update-based write-shared protocol
// against the delayed-invalidation protocol §2.3.2 says the authors
// considered but did not implement. Invalidation forces the consumers to
// re-fault whole pages every iteration where the update protocol ships a
// small diff.
func RunAblationA1(o AblationOpts) (Ablation, error) {
	o = o.withDefaults()
	a := Ablation{
		Title: "Ablation A1: update vs. delayed-invalidate for write-shared SOR",
		Note: fmt.Sprintf("%d procs, %dx%d grid, %d iterations",
			o.Procs, o.Rows, o.Cols, o.Iters),
	}
	ws := protocol.WriteShared
	inv := protocol.InvalidateShared
	for _, cfg := range []struct {
		name     string
		override *protocol.Annotation
	}{
		{"update (write_shared)", &ws},
		{"delayed invalidate (+)", &inv},
	} {
		r, err := runOnce(apps.NewSOR, apps.SORConfig{
			Procs: o.Procs, Rows: o.Rows, Cols: o.Cols, Iters: o.Iters, Model: o.Model,
		}, AppOpts{}.runOpts(cfg.override)...)
		if err != nil {
			return Ablation{}, fmt.Errorf("bench: A1 %s: %w", cfg.name, err)
		}
		a.Rows = append(a.Rows, AblationRow{
			Name: cfg.name, Elapsed: r.Elapsed, Messages: r.Messages, Bytes: r.Bytes,
			Detail: fmt.Sprintf("read-req=%d update=%d invalidate=%d",
				r.PerKind[wire.KindReadReq], r.PerKind[wire.KindUpdateBatch],
				r.PerKind[wire.KindInvalidate]),
		})
	}
	return a, nil
}

// RunAblationA2 isolates the stable-sharing (S) bit: SOR annotated
// producer_consumer (copyset determined once) against write_shared
// (copyset re-determined by broadcast at every release) — the saving
// Table 6 attributes to producer-consumer.
func RunAblationA2(o AblationOpts) (Ablation, error) {
	o = o.withDefaults()
	a := Ablation{
		Title: "Ablation A2: stable sharing (producer_consumer) vs. per-release copyset determination (write_shared)",
		Note: fmt.Sprintf("%d procs, %dx%d grid, %d iterations",
			o.Procs, o.Rows, o.Cols, o.Iters),
	}
	ws := protocol.WriteShared
	for _, cfg := range []struct {
		name     string
		override *protocol.Annotation
	}{
		{"producer_consumer (S=Y)", nil},
		{"write_shared (S=N)", &ws},
	} {
		r, err := runOnce(apps.NewSOR, apps.SORConfig{
			Procs: o.Procs, Rows: o.Rows, Cols: o.Cols, Iters: o.Iters, Model: o.Model,
		}, AppOpts{}.runOpts(cfg.override)...)
		if err != nil {
			return Ablation{}, fmt.Errorf("bench: A2 %s: %w", cfg.name, err)
		}
		a.Rows = append(a.Rows, AblationRow{
			Name: cfg.name, Elapsed: r.Elapsed, Messages: r.Messages, Bytes: r.Bytes,
			Detail: fmt.Sprintf("copyset msgs=%d", copysetTraffic(r)),
		})
	}
	return a, nil
}

// CriticalSectionResult reports one configuration of the A3 workload.
type CriticalSectionResult struct {
	Elapsed    sim.Time
	Messages   int
	Bytes      int
	ReadMisses int
	Final      uint32
}

// RunCriticalSection runs the A3 workload: procs worker threads each
// performing rounds of acquire-lock / read-modify-write a migratory
// counter / release-lock. With associate, the counter is declared
// AssociateDataAndSynch'd to the lock, so lock grants carry its value and
// the critical section never takes an access miss (§2.5).
func RunCriticalSection(m model.CostModel, procs, rounds int, associate bool) (CriticalSectionResult, error) {
	if m == (model.CostModel{}) {
		m = model.Default()
	}
	p := munin.NewProgram(procs)
	l := p.CreateLock()
	var opts []munin.DeclOption
	if associate {
		opts = append(opts, munin.WithLock(l))
	}
	ctr := munin.DeclareVar[uint32](p, "counter", munin.Migratory, opts...)
	done := p.CreateBarrier(procs + 1)

	var final uint32
	res, err := p.Run(context.Background(), func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("cs-worker%d", w), func(t *munin.Thread) {
				for r := 0; r < rounds; r++ {
					l.Acquire(t)
					v := ctr.Get(t)
					t.Compute(10 * sim.Microsecond) // the critical section's work
					ctr.Set(t, v+1)
					l.Release(t)
				}
				done.Wait(t)
			})
		}
		done.Wait(root)
		l.Acquire(root)
		final = ctr.Get(root)
		l.Release(root)
	}, munin.WithModel(m))
	if err != nil {
		return CriticalSectionResult{}, err
	}
	st := res.Stats()
	misses := 0
	for i := 0; i < procs; i++ {
		misses += res.System().Node(i).ReadMisses
	}
	return CriticalSectionResult{
		Elapsed:    st.Elapsed,
		Messages:   st.Messages,
		Bytes:      st.Bytes,
		ReadMisses: misses,
		Final:      final,
	}, nil
}

// RunAblationA3 compares the critical-section workload with and without
// lock-data association.
func RunAblationA3(o AblationOpts) (Ablation, error) {
	o = o.withDefaults()
	a := Ablation{
		Title: "Ablation A3: AssociateDataAndSynch on a lock-protected migratory counter",
		Note:  fmt.Sprintf("%d procs x %d rounds", o.Procs, o.Rounds),
	}
	for _, cfg := range []struct {
		name      string
		associate bool
	}{
		{"unassociated", false},
		{"associated", true},
	} {
		r, err := RunCriticalSection(o.Model, o.Procs, o.Rounds, cfg.associate)
		if err != nil {
			return Ablation{}, fmt.Errorf("bench: A3 %s: %w", cfg.name, err)
		}
		if r.Final != uint32(o.Procs*o.Rounds) {
			return Ablation{}, fmt.Errorf("bench: A3 %s: counter = %d, want %d",
				cfg.name, r.Final, o.Procs*o.Rounds)
		}
		a.Rows = append(a.Rows, AblationRow{
			Name: cfg.name, Elapsed: r.Elapsed, Messages: r.Messages, Bytes: r.Bytes,
			Detail: fmt.Sprintf("read misses=%d", r.ReadMisses),
		})
	}
	return a, nil
}

// BarrierStormResult reports one configuration of the A5 workload.
type BarrierStormResult struct {
	Elapsed  sim.Time
	Messages int
	Bytes    int
}

// RunBarrierStorm runs the A5 workload: procs worker threads doing
// nothing but waiting at a barrier, rounds times — pure synchronization
// latency, the regime where the release scheme dominates.
func RunBarrierStorm(m model.CostModel, procs, rounds int, tree bool) (BarrierStormResult, error) {
	if m == (model.CostModel{}) {
		m = model.Default()
	}
	p := munin.NewProgram(procs)
	bar := p.CreateBarrier(procs + 1)
	opts := []munin.RunOption{munin.WithModel(m)}
	if tree {
		opts = append(opts, munin.WithBarrierTree(0))
	}
	res, err := p.Run(context.Background(), func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("bs-worker%d", w), func(t *munin.Thread) {
				for r := 0; r < rounds; r++ {
					bar.Wait(t)
				}
			})
		}
		for r := 0; r < rounds; r++ {
			bar.Wait(root)
		}
	}, opts...)
	if err != nil {
		return BarrierStormResult{}, err
	}
	st := res.Stats()
	return BarrierStormResult{Elapsed: st.Elapsed, Messages: st.Messages, Bytes: st.Bytes}, nil
}

// RunAblationA5 compares the prototype's centralized barrier release
// against the tree scheme §3.4 envisions for larger systems, on a
// barrier-only workload at full machine width.
func RunAblationA5(o AblationOpts) (Ablation, error) {
	o = o.withDefaults()
	procs := 16
	a := Ablation{
		Title: "Ablation A5: centralized vs. tree barrier release",
		Note:  fmt.Sprintf("%d procs x %d barrier rounds, no data sharing", procs, o.Rounds),
	}
	for _, cfg := range []struct {
		name string
		tree bool
	}{
		{"centralized (prototype)", false},
		{"release tree (fanout 4)", true},
	} {
		r, err := RunBarrierStorm(o.Model, procs, o.Rounds, cfg.tree)
		if err != nil {
			return Ablation{}, fmt.Errorf("bench: A5 %s: %w", cfg.name, err)
		}
		a.Rows = append(a.Rows, AblationRow{
			Name: cfg.name, Elapsed: r.Elapsed, Messages: r.Messages, Bytes: r.Bytes,
			Detail: fmt.Sprintf("%.2f ms/barrier", r.Elapsed.Milliseconds()/float64(o.Rounds)),
		})
	}
	return a, nil
}

// ReductionStormResult reports one configuration of the A6 workload.
type ReductionStormResult struct {
	Elapsed   sim.Time
	Messages  int
	Bytes     int
	Applied   int // full-object update applications across all nodes
	Coalesced int // pending updates superseded before application
	// MergeCPU is the total processor time all nodes spent merging
	// incoming updates (the work the PUQ defers and coalesces away).
	MergeCPU sim.Time
	Final    uint32
}

// RunReductionStorm runs the A6 workload: every node holds a read replica
// of a page-sized reduction array whose fixed owner broadcasts a full
// image to the replicas after each Fetch-and-Φ. Each node performs rounds
// operations. Eagerly applied, that is procs×rounds full-page merges at
// every replica; with the pending update queue the images coalesce and
// each replica applies one per synchronization point.
func RunReductionStorm(m model.CostModel, procs, rounds int, puq bool) (ReductionStormResult, error) {
	if m == (model.CostModel{}) {
		m = model.Default()
	}
	p := munin.NewProgram(procs)
	hist := munin.Declare[uint32](p, "histogram", 2048, munin.Reduction) // one 8 KB page
	done := p.CreateBarrier(procs + 1)
	opts := []munin.RunOption{munin.WithModel(m)}
	if puq {
		opts = append(opts, munin.WithPendingUpdates())
	}
	var final uint32
	res, err := p.Run(context.Background(), func(root *munin.Thread) {
		for w := 0; w < procs; w++ {
			w := w
			root.Spawn(w, fmt.Sprintf("rs-worker%d", w), func(t *munin.Thread) {
				_ = hist.Get(t, 0) // become a replica
				done.Wait(t)
				for r := 0; r < rounds; r++ {
					hist.FetchAndAdd(t, (w*13+r)%2048, 1)
				}
				done.Wait(t)
			})
		}
		done.Wait(root)
		done.Wait(root)
		var sum uint32
		for i := 0; i < 2048; i++ {
			sum += hist.Get(root, i)
		}
		final = sum
	}, opts...)
	if err != nil {
		return ReductionStormResult{}, err
	}
	st := res.Stats()
	out := ReductionStormResult{
		Elapsed: st.Elapsed, Messages: st.Messages, Bytes: st.Bytes, Final: final,
	}
	for i := 0; i < procs; i++ {
		out.Applied += res.System().Node(i).UpdatesApply
		out.Coalesced += res.System().Node(i).PendingCoalesced
	}
	// The apply cost is one full-page copy per application.
	out.MergeCPU = sim.Time(out.Applied) * m.CopyCost(8192)
	return out, nil
}

// RunAblationA6 compares eager update application against the pending
// update queue on the reduction-broadcast workload. The simulator gives
// every process its own timeline (no per-node CPU contention), so the
// PUQ's benefit appears as eliminated merge work — applications coalesced
// away and processor time not spent — rather than as elapsed time; on the
// prototype's single-CPU nodes that merge work stole cycles from user
// threads directly.
func RunAblationA6(o AblationOpts) (Ablation, error) {
	o = o.withDefaults()
	a := Ablation{
		Title: "Ablation A6: eager update application vs. the pending update queue (PUQ)",
		Note:  fmt.Sprintf("%d procs x %d Fetch-and-adds on a replicated 8 KB reduction array", o.Procs, o.Rounds),
	}
	var want uint32
	for _, cfg := range []struct {
		name string
		puq  bool
	}{
		{"eager (prototype)", false},
		{"pending update queue", true},
	} {
		r, err := RunReductionStorm(o.Model, o.Procs, o.Rounds, cfg.puq)
		if err != nil {
			return Ablation{}, fmt.Errorf("bench: A6 %s: %w", cfg.name, err)
		}
		if want == 0 {
			want = r.Final
		} else if r.Final != want {
			return Ablation{}, fmt.Errorf("bench: A6 %s: sum %d, want %d", cfg.name, r.Final, want)
		}
		a.Rows = append(a.Rows, AblationRow{
			Name: cfg.name, Elapsed: r.Elapsed, Messages: r.Messages, Bytes: r.Bytes,
			Detail: fmt.Sprintf("applied=%d coalesced=%d merge-cpu=%.1fms",
				r.Applied, r.Coalesced, r.MergeCPU.Milliseconds()),
		})
	}
	return a, nil
}

// RunAblationA4 compares the prototype's broadcast copyset determination
// against the improved home-directed algorithm §3.3 describes but never
// implemented, on three write-shared workloads that re-determine at every
// release: SOR, the pipeline's all-to-all phase and the lock ring. Rows
// come in (broadcast, home-directed) pairs, SOR first, and every row's
// result is checked against the sequential reference.
func RunAblationA4(o AblationOpts) (Ablation, error) {
	o = o.withDefaults()
	a := Ablation{
		Title: "Ablation A4: broadcast vs. home-directed (exact) copyset determination, write-shared data",
		Note: fmt.Sprintf("%d procs; SOR %dx%d grid, %d iterations; pipeline; lock ring, %d rounds",
			o.Procs, o.Rows, o.Cols, o.Iters, o.Rounds),
	}
	ws := protocol.WriteShared
	sor := apps.SORConfig{Procs: o.Procs, Rows: o.Rows, Cols: o.Cols, Iters: o.Iters, Model: o.Model}
	pipe := apps.PipelineConfig{Procs: o.Procs, Model: o.Model, Override: &ws}
	lock := apps.LockHeavyConfig{Procs: o.Procs, Rounds: o.Rounds, Model: o.Model}
	for _, w := range []struct {
		name string
		want uint32
		run  func(opts ...munin.RunOption) (apps.RunResult, error)
	}{
		{"SOR", apps.SORReference(o.Rows, o.Cols, o.Iters), func(opts ...munin.RunOption) (apps.RunResult, error) {
			return runOnce(apps.NewSOR, sor, append([]munin.RunOption{munin.WithOverride(ws)}, opts...)...)
		}},
		{"pipeline", apps.PipelineReference(pipe), func(opts ...munin.RunOption) (apps.RunResult, error) {
			return runOnce(apps.NewPipeline, pipe, opts...)
		}},
		{"lock ring", apps.LockHeavyReference(lock), func(opts ...munin.RunOption) (apps.RunResult, error) {
			return runOnce(apps.NewLockHeavy, lock, opts...)
		}},
	} {
		for _, cfg := range []struct {
			name string
			opts []munin.RunOption
		}{
			{"broadcast (prototype)", nil},
			{"home-directed (improved)", []munin.RunOption{munin.WithExactCopyset()}},
		} {
			name := w.name + " " + cfg.name
			r, err := w.run(cfg.opts...)
			if err != nil {
				return Ablation{}, fmt.Errorf("bench: A4 %s: %w", name, err)
			}
			if r.Check != w.want {
				return Ablation{}, fmt.Errorf("bench: A4 %s: checksum %08x, want %08x", name, r.Check, w.want)
			}
			a.Rows = append(a.Rows, AblationRow{
				Name: name, Elapsed: r.Elapsed, Messages: r.Messages, Bytes: r.Bytes,
				Detail: fmt.Sprintf("copyset msgs=%d", copysetTraffic(r)),
			})
		}
	}
	return a, nil
}
