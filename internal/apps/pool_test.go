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

// TestPoisonedReceiveBuffers runs the programs whose handlers keep parts
// of what they receive — parked and queued updates, lock grants with
// piggybacked data, lazy timestamps and notices, read replies that become
// pages — on the simulator with every returned buffer overwritten
// (wire.Poison), and every list a dispatcher's Reader handed out
// overwritten when it decodes its next frame. The simulator hands each
// receiver the sender's frame, so a handler that kept a view into it, or
// a list decoded from it, without re-owning it reads the poison, and the
// run's checksum stops matching its sequential reference:
// deterministically, not when some other buffer's user happens to write.
func TestPoisonedReceiveBuffers(t *testing.T) {
	wire.Poison(true)
	defer wire.Poison(false)
	ring := LockHeavyConfig{Procs: 4, Rounds: 6}
	sorCfg := SORConfig{Procs: 4, Rows: 16, Cols: 2048, Iters: 4, PhaseBarrier: true}
	mmCfg := MatMulConfig{Procs: 4, N: 48}
	demoCfg := DemoConfig{Procs: 4}
	lockHeavy, err := NewLockHeavy(ring)
	if err != nil {
		t.Fatal(err)
	}
	sor, err := NewSOR(sorCfg)
	if err != nil {
		t.Fatal(err)
	}
	matmul, err := NewMatMul(mmCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each lock grant carries the counter associated with the lock: a
	// waiter that applied the grant's updates, or absorbed its lazy
	// timestamp, after giving the reply back would read the poison.
	lockDemo, err := NewLockDemo(demoCfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		app  *App
		opts []munin.RunOption
		want uint32
	}{
		{"lock ring", lockHeavy, nil, LockHeavyReference(ring)},
		{"lazy lock ring", lockHeavy, []munin.RunOption{munin.WithConsistency(munin.LazyRC)}, LockHeavyReference(ring)},
		{"phase-barrier sor", sor, nil, SORReference(sorCfg.Rows, sorCfg.Cols, sorCfg.Iters)},
		{"matmul", matmul, nil, MatMulReference(mmCfg.N)},
		{"lazy phase-barrier sor", sor, []munin.RunOption{munin.WithConsistency(munin.LazyRC)}, SORReference(sorCfg.Rows, sorCfg.Cols, sorCfg.Iters)},
		{"lock grant updates", lockDemo, nil, uint32(demoCfg.Procs)},
		{"lazy lock grant updates", lockDemo, []munin.RunOption{munin.WithConsistency(munin.LazyRC)}, uint32(demoCfg.Procs)},
	}
	for _, r := range runs {
		for _, batch := range []bool{false, true} {
			opts := append([]munin.RunOption{munin.WithTransport("sim")}, r.opts...)
			if batch {
				opts = append(opts, munin.WithBatching())
			}
			res, err := r.app.Run(context.Background(), opts...)
			if err != nil {
				t.Fatalf("%s/batch=%v: %v", r.name, batch, err)
			}
			if res.Check != r.want {
				t.Errorf("%s/batch=%v: checksum %08x, want %08x", r.name, batch, res.Check, r.want)
			}
		}
	}
}
