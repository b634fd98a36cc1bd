package apps

import (
	"context"
	"fmt"
	"testing"

	"munin"
	"munin/internal/wire"
)

// TestPayloadBuffersBalance: every pooled wire buffer a run borrows goes
// back by the time it returns. Besides the transports' own encode and
// receive buffers, that covers the payloads the runtime builds only to
// be sent — flush diffs and images, served pages, lazy base copies —
// which go back after the send, or, with batching, at the flush of the
// outbox that held them across yields. A payload lost or returned twice
// moves the balance.
func TestPayloadBuffersBalance(t *testing.T) {
	sor, err := NewSOR(SORConfig{Procs: 4, Rows: 16, Cols: 2048, Iters: 4, PhaseBarrier: true})
	if err != nil {
		t.Fatal(err)
	}
	matmul, err := NewMatMul(MatMulConfig{Procs: 4, N: 48})
	if err != nil {
		t.Fatal(err)
	}
	lockHeavy, err := NewLockHeavy(LockHeavyConfig{Procs: 4, Rounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		app  *App
		opts []munin.RunOption
	}{
		{"sor", sor, nil},
		{"matmul", matmul, nil},
		{"lockheavy", lockHeavy, nil},
		{"lockheavy-lazy", lockHeavy, []munin.RunOption{munin.WithConsistency(munin.LazyRC)}},
	}
	for _, r := range runs {
		for _, tr := range []string{"sim", "chan", "mux"} {
			for _, batch := range []bool{false, true} {
				opts := append([]munin.RunOption{munin.WithTransport(tr)}, r.opts...)
				if batch {
					opts = append(opts, munin.WithBatching())
				}
				label := fmt.Sprintf("%s/%s/batch=%v", r.name, tr, batch)
				before := wire.Outstanding()
				_, err := r.app.Run(context.Background(), opts...)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if d := wire.Outstanding() - before; d != 0 {
					t.Errorf("%s: %d pooled buffers still borrowed after the run", label, d)
				}
			}
		}
	}
}
