package apps

import (
	"context"
	"fmt"
	"testing"

	"munin"
	"munin/internal/network"
	"munin/internal/protocol"
	"munin/internal/wire"
)

// Home-directed copyset determination (§3.3's improved algorithm,
// munin.WithExactCopyset) on the static write_shared pipeline: every node
// writes a slice of every page between barriers, so each release's
// lookup races reads the home and other holders are serving. These runs
// are deterministic on the simulator; DESIGN.md "Home-directed copysets"
// draws the two races the minimal cases pin.

// staleUpdates sums the updates the run's nodes ignored because the
// home's tracked copyset named a node holding no copy.
func staleUpdates(r RunResult) int {
	sys := r.res.System()
	n := 0
	for i := 0; i < sys.Nodes(); i++ {
		n += sys.Node(i).StaleUpdates
	}
	return n
}

// runExactPipeline runs the static write_shared pipeline with exact
// copysets on the given transport and checks it against the sequential
// reference.
func runExactPipeline(t *testing.T, cfg PipelineConfig, transport string) {
	t.Helper()
	ws := protocol.WriteShared
	cfg = cfg.withDefaults()
	cfg.Override = &ws
	r, err := runNew(NewPipeline, cfg, munin.WithTransport(transport), munin.WithExactCopyset())
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	if want := PipelineReference(cfg); r.Check != want {
		t.Errorf("procs=%d pages=%d rounds=%d+%d (%s): checksum %08x, want %08x",
			cfg.Procs, cfg.Pages, cfg.Rounds1, cfg.Rounds2, transport, r.Check, want)
	}
	if n := staleUpdates(r); n != 0 {
		t.Errorf("procs=%d (%s): %d stale updates, want 0", cfg.Procs, transport, n)
	}
}

func TestExactPipeline(t *testing.T) {
	for _, procs := range []int{4, 8, 16} {
		runExactPipeline(t, PipelineConfig{Procs: procs}, "")
	}
}

// TestExactPipelineHomeFaultInFlight is race (a): the home's own read
// fault is in flight when two writers look up the copyset. The home must
// count itself, or the holder serving it hands over data that predates
// both writers' updates and the home never receives them.
func TestExactPipelineHomeFaultInFlight(t *testing.T) {
	runExactPipeline(t, PipelineConfig{Procs: 4, Pages: 1, Rounds1: 1, Rounds2: 1}, "")
}

// TestExactPipelineHolderServesBeforeUpdate is race (b): with two pages a
// non-home holder serves a read between a writer's lookup and that
// writer's update. Only the home sees the lookup, so only a read the home
// serves can wait for the update.
func TestExactPipelineHolderServesBeforeUpdate(t *testing.T) {
	runExactPipeline(t, PipelineConfig{Procs: 4, Pages: 2, Rounds1: 1, Rounds2: 1}, "")
}

// TestExactPipelineLive runs the exact pipeline on the live transports,
// where exact copysets are the default for eager runs.
func TestExactPipelineLive(t *testing.T) {
	for _, tr := range transportsUnderTest {
		for _, procs := range []int{4, 8} {
			runExactPipeline(t, PipelineConfig{Procs: procs}, tr)
		}
	}
}

// TestExactLockHeavy: the lock ring under exact copysets computes the
// reference image with no ignored update, on every transport.
func TestExactLockHeavy(t *testing.T) {
	for _, tr := range append([]string{"sim"}, transportsUnderTest...) {
		cfg := LockHeavyConfig{Procs: 8, Rounds: 20}
		r, err := runNew(NewLockHeavy, cfg, munin.WithTransport(tr), munin.WithExactCopyset())
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if want := LockHeavyReference(cfg); r.Check != want {
			t.Errorf("%s: checksum %08x, want %08x", tr, r.Check, want)
		}
		if n := staleUpdates(r); n != 0 {
			t.Errorf("%s: %d stale updates, want 0", tr, n)
		}
		if q := r.PerKind[wire.KindCopysetQuery]; q != 0 {
			t.Errorf("%s: %d broadcast copyset queries, want 0", tr, q)
		}
	}
}

// TestExactLockHeavySteadyState: a writer keeps the copyset its home gave
// it, and the home tells it about each new reader. On the lock ring every
// node writes the same two regions every round, so a writer asks about
// each region once, and the homes' announcements of new readers and the
// writers' promises answering them all come before the ring's steady
// state: running four times as many rounds adds none of them.
func TestExactLockHeavySteadyState(t *testing.T) {
	type traffic struct{ lookups, notifies, promises int }
	run := func(rounds int) traffic {
		t.Helper()
		cfg := LockHeavyConfig{Procs: 8, Rounds: rounds}
		app, err := NewLockHeavy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var tr traffic
		countPromises := func(env network.Envelope) {
			if m, ok := env.Msg.(wire.UpdateBatch); ok {
				for _, u := range m.Entries {
					if u.Full == nil && len(u.Diff) == 0 {
						tr.promises++
					}
				}
			}
		}
		r, err := app.Run(context.Background(),
			munin.WithTransport("sim"), munin.WithExactCopyset(), munin.WithTrace(countPromises))
		if err != nil {
			t.Fatalf("rounds=%d: %v", rounds, err)
		}
		if want := LockHeavyReference(cfg); r.Check != want {
			t.Errorf("rounds=%d: checksum %08x, want %08x", rounds, r.Check, want)
		}
		tr.lookups, tr.notifies = r.PerKind[wire.KindCopysetLookup], r.PerKind[wire.KindCopysetNotify]
		return tr
	}
	short, long := run(5), run(20)
	t.Logf("per run: %+v", short)
	// Each node writes two regions, all homed on node 0.
	if pairs := 2 * 8; short.lookups > pairs {
		t.Errorf("%d copyset lookups, want at most one per (writer, region): %d", short.lookups, pairs)
	}
	if long != short {
		t.Errorf("5 rounds: %+v; 20 rounds: %+v; want the same lookups, notifies and promises", short, long)
	}
}

// TestLockRingTraffic pins the lock messages of the lock ring on the
// simulator. A request travels to the last requester its sender knows of,
// so no lock transfer is reported to anyone and no successor is set by
// message. Node 0 is every lock's first owner. It hears about a pair it
// is not in once per member, from the member's first request, sent while
// the member's hint still names node 0; after that the pair's lock moves
// between its two members alone.
func TestLockRingTraffic(t *testing.T) {
	const procs = 8
	cfg := LockHeavyConfig{Procs: procs, Rounds: 20}
	app, err := NewLockHeavy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pair g = {g, g+1 mod procs} is guarded by lock g+1, so node 0 is in
	// the pairs of locks 1 and procs.
	foreign := func(lock uint32) bool { return lock != 1 && lock != procs }
	type request struct {
		lock uint32
		from int
	}
	heard := map[request]int{}
	var stray []string
	r, err := app.Run(context.Background(), munin.WithTransport("sim"), munin.WithExactCopyset(),
		munin.WithTrace(func(env network.Envelope) {
			switch m := env.Msg.(type) {
			case wire.LockAcq:
				if env.Dst == 0 && foreign(m.Lock) {
					if env.Src != int(m.Requester) {
						stray = append(stray, fmt.Sprintf("node %d forwarded node %d's request for lock %d to node 0", env.Src, m.Requester, m.Lock))
					}
					heard[request{m.Lock, env.Src}]++
				}
			case wire.LockGrant:
				if env.Dst == 0 && foreign(m.Lock) {
					stray = append(stray, fmt.Sprintf("node %d granted lock %d to node 0", env.Src, m.Lock))
				}
			case wire.LockSetSucc, wire.LockOwnNotify:
				stray = append(stray, fmt.Sprintf("%v from node %d to node %d", env.Msg.Kind(), env.Src, env.Dst))
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if want := LockHeavyReference(cfg); r.Check != want {
		t.Errorf("checksum %08x, want %08x", r.Check, want)
	}
	for _, s := range stray {
		t.Error(s)
	}
	for req, n := range heard {
		if n > 1 {
			t.Errorf("node 0 received %d requests from node %d for lock %d, want only its first", n, req.from, req.lock)
		}
	}
	if want := 2 * (procs - 2); len(heard) != want {
		t.Errorf("node 0 heard %d first requests for pairs it is not in, want %d", len(heard), want)
	}
	want := map[wire.Kind]int{wire.KindLockAcq: 303, wire.KindLockGrant: 297, wire.KindLockSetSucc: 0, wire.KindLockOwnNotify: 0}
	for k, n := range want {
		if got := r.PerKind[k]; got != n {
			t.Errorf("%d %v messages, want %d", got, k, n)
		}
	}
}
