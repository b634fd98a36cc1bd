package bench

import (
	"context"
	"testing"

	"munin"
	"munin/internal/apps"
)

// TestWireTable pins the batching table's acceptance shape on a
// scaled-down sweep: every (workload, engine) pair correct under both
// modes with byte-identical sim images, strictly fewer transport sends
// where the design guarantees coalescing, and never more anywhere.
func TestWireTable(t *testing.T) {
	r, err := RunWire(WireOpts{Procs: 8, Rounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(r.Rows))
	}
	mustReduce := map[[2]string]bool{
		{"pipeline", "eager"}: true,
		{"pipeline", "lazy"}:  true,
		{"lockheavy", "lazy"}: true,
	}
	for _, row := range r.Rows {
		key := [2]string{row.App, row.Consistency}
		if !row.ChecksOK {
			t.Errorf("%s/%s: wrong result under one of the modes", row.App, row.Consistency)
		}
		if !row.ImageMatch {
			t.Errorf("%s/%s: batched and unbatched runs ended with different final images", row.App, row.Consistency)
		}
		if row.BatchedSends > row.PlainSends {
			t.Errorf("%s/%s: batching increased sends %d -> %d", row.App, row.Consistency, row.PlainSends, row.BatchedSends)
		}
		if mustReduce[key] && row.BatchedSends >= row.PlainSends {
			t.Errorf("%s/%s: batched %d sends, unbatched %d — want strictly fewer",
				row.App, row.Consistency, row.BatchedSends, row.PlainSends)
		}
		if mustReduce[key] && row.Envelopes == 0 {
			t.Errorf("%s/%s: no batch envelopes on a row that must coalesce", row.App, row.Consistency)
		}
		// An envelope of k riders replaces k sends with one: the books
		// must balance exactly.
		if got, want := row.BatchedSends, row.BatchedMessages-row.Riders+row.Envelopes; got != want {
			t.Errorf("%s/%s: sends %d do not reconcile with messages %d, riders %d, envelopes %d",
				row.App, row.Consistency, got, row.BatchedMessages, row.Riders, row.Envelopes)
		}
		// Envelopes coalesce sends, never messages: cheaper sends shift
		// virtual timing, which moves a few chase and demand-fetch
		// messages (the lazy pipeline ~2.6% at 8 nodes), but a swing past
		// 5% means riders were lost or duplicated.
		if d := row.BatchedMessages - row.PlainMessages; 20*max(d, -d) > row.PlainMessages {
			t.Errorf("%s/%s: protocol messages diverged %d -> %d under batching",
				row.App, row.Consistency, row.PlainMessages, row.BatchedMessages)
		}
		// Batching saves headers, so bytes must not grow.
		if row.BatchedBytes > row.PlainBytes {
			t.Errorf("%s/%s: batching increased bytes %d -> %d", row.App, row.Consistency, row.PlainBytes, row.BatchedBytes)
		}
	}
}

// BenchmarkLockHeavyEndToEnd measures the full lock-heavy workload —
// the wire hot path end to end: encode, size, deliver, dispatch —
// batched and unbatched under each engine. Reported allocations cover
// the whole run, so this tracks codec and transport garbage at the
// system level rather than per message.
func BenchmarkLockHeavyEndToEnd(b *testing.B) {
	app, err := apps.NewLockHeavy(apps.LockHeavyConfig{Procs: 8, Rounds: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts []munin.RunOption
	}{
		{"eager", nil},
		{"eager-batched", []munin.RunOption{munin.WithBatching()}},
		{"lazy", []munin.RunOption{munin.WithConsistency(munin.LazyRC)}},
		{"lazy-batched", []munin.RunOption{munin.WithConsistency(munin.LazyRC), munin.WithBatching()}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := app.Run(context.Background(), bc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Sends), "sends/run")
				b.ReportMetric(float64(res.Messages), "msgs/run")
			}
		})
	}
}
