package apps

// Pipeline is the phase-changing workload the adaptive engine exists
// for: a shared buffer whose access pattern is producer-consumer in
// phase 1 and write-shared (all-to-all, false-shared pages) in phase 2.
// No single static annotation fits both phases — producer_consumer is
// ideal for phase 1 but its stable-sharing check makes phase 2 a runtime
// error, write_shared re-determines copysets every flush, conventional
// ping-pongs page ownership, migratory serializes everything. The
// adaptive runtime profiles the running program and switches the buffer
// online as the phases shift.

import (
	"fmt"

	"munin"
	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/sim"
)

// PipelineConfig parameterizes a pipeline run.
type PipelineConfig struct {
	// Procs is the number of processors (4–16).
	Procs int
	// Pages is the shared buffer size in 8 KB pages (default 2).
	Pages int
	// Rounds1 and Rounds2 are the rounds per phase (default 8 each).
	Rounds1, Rounds2 int
	// Model is the cost model (zero = default).
	Model model.CostModel
	// Override sets the buffer's declared annotation (nil = the paper's
	// phase-1 hint, producer_consumer). Declaring it munin.Adaptive (no
	// hint at all) needs a run with munin.WithAdaptive.
	Override *protocol.Annotation
}

// pipeline constants: the producer fills prodWords words per page in
// phase 1; in phase 2 every node writes sliceWords words per page at its
// own offset (false sharing: all slices share the page).
const (
	pipeProdWords  = 64
	pipeSliceWords = 8
)

// pipeValue1 is the value the producer writes in phase 1.
func pipeValue1(round, page, i int) uint32 {
	return uint32(round*1000000 + page*10000 + i)
}

// pipeValue2 is the value node p writes in phase 2.
func pipeValue2(round, page, p, i int) uint32 {
	return uint32(round*2000000 + page*20000 + p*100 + i)
}

// PipelineReference computes the expected consumed total sequentially.
func PipelineReference(c PipelineConfig) uint32 {
	c = c.withDefaults()
	var total uint32
	// Phase 1: two consumers each read every produced word every round.
	for r := 0; r < c.Rounds1; r++ {
		for pg := 0; pg < c.Pages; pg++ {
			for i := 0; i < pipeProdWords; i++ {
				total += 2 * pipeValue1(r, pg, i)
			}
		}
	}
	// Phase 2: every node reads every node's slice every round.
	for r := 0; r < c.Rounds2; r++ {
		for pg := 0; pg < c.Pages; pg++ {
			for p := 0; p < c.Procs; p++ {
				for i := 0; i < pipeSliceWords; i++ {
					total += uint32(c.Procs) * pipeValue2(r, pg, p, i)
				}
			}
		}
	}
	return total
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Pages == 0 {
		c.Pages = 2
	}
	if c.Rounds1 == 0 {
		c.Rounds1 = 8
	}
	if c.Rounds2 == 0 {
		c.Rounds2 = 8
	}
	if c.Model == (model.CostModel{}) {
		c.Model = model.Default()
	}
	return c
}

// NewPipeline builds the phase-changing workload as a reusable App. The
// buffer's declared annotation is part of the Program: the paper's
// phase-1 hint (producer_consumer), or the config's Override. The
// adaptive engine is a per-run option.
func NewPipeline(c PipelineConfig) (*App, error) {
	c = c.withDefaults()
	if c.Procs < 4 || c.Procs > munin.MaxProcessors {
		return nil, fmt.Errorf("apps: pipeline needs 4-%d processors, got %d", munin.MaxProcessors, c.Procs)
	}
	annot := protocol.ProducerConsumer
	if c.Override != nil {
		annot = *c.Override
	}
	prog := munin.NewProgram(c.Procs)

	wordsPerPage := 8192 / 4
	buf := munin.Declare[uint32](prog, "buffer", c.Pages*wordsPerPage, annot)
	sums := munin.Declare[uint32](prog, "sums", c.Procs, munin.ResultObject)
	bar := prog.CreateBarrier(c.Procs + 1)

	P, R1, R2, pages := c.Procs, c.Rounds1, c.Rounds2, c.Pages
	word := func(pg, i int) int { return pg*wordsPerPage + i }
	touch := c.Model.MemTouchPerByte

	root := func(root *munin.Thread) {
		for p := 0; p < P; p++ {
			p := p
			root.Spawn(p, fmt.Sprintf("pipe%d", p), func(t *munin.Thread) {
				var local uint32
				producer := p == 1
				consumer := p == 2 || p == 3

				// Phase 1: producer-consumer. The consumers prefetch
				// copies so the relationship exists before the first
				// flush can lock a stable copyset in (§2.5 PreAcquire,
				// exactly as the paper's adaptive-program pattern).
				if consumer {
					for pg := 0; pg < pages; pg++ {
						t.PreAcquire(buf.Addr(word(pg, 0)))
					}
				}
				bar.Wait(t)
				for r := 0; r < R1; r++ {
					if producer {
						for pg := 0; pg < pages; pg++ {
							for i := 0; i < pipeProdWords; i++ {
								buf.Set(t, word(pg, i), pipeValue1(r, pg, i))
							}
						}
						t.Compute(touch * sim.Time(4*pipeProdWords*pages))
					}
					bar.Wait(t)
					if consumer {
						for pg := 0; pg < pages; pg++ {
							for i := 0; i < pipeProdWords; i++ {
								local += buf.Get(t, word(pg, i))
							}
						}
						t.Compute(touch * sim.Time(4*pipeProdWords*pages))
					}
					bar.Wait(t)
				}

				// Phase 2: all-to-all write sharing on the same pages.
				for r := 0; r < R2; r++ {
					for pg := 0; pg < pages; pg++ {
						for i := 0; i < pipeSliceWords; i++ {
							buf.Set(t, word(pg, p*pipeSliceWords+i), pipeValue2(r, pg, p, i))
						}
					}
					bar.Wait(t)
					for pg := 0; pg < pages; pg++ {
						for q := 0; q < P; q++ {
							for i := 0; i < pipeSliceWords; i++ {
								local += buf.Get(t, word(pg, q*pipeSliceWords+i))
							}
						}
					}
					t.Compute(touch * sim.Time(4*pipeSliceWords*P*pages))
					bar.Wait(t)
				}

				sums.Set(t, p, local)
				bar.Wait(t)
			})
		}
		for i := 0; i < 1+2*R1+2*R2+1; i++ {
			bar.Wait(root)
		}
	}

	check := func(res *munin.Result) (uint32, error) {
		snap, err := sums.Snapshot(res, 0)
		if err != nil {
			return 0, fmt.Errorf("apps: pipeline sums unavailable at root: %w", err)
		}
		var got uint32
		for p := 0; p < P; p++ {
			got += snap[p]
		}
		return got, nil
	}
	return &App{Prog: prog, Root: root, Check: check, Model: c.Model}, nil
}
