package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Harness-side spans for the traced run: one around every boundary the
// harness crosses into a layer, kept in memory and written out when the
// benchmark ends. Spans inside the program are a later issue; the
// program's own protocol events go out beside these as a Chrome trace.
//
// A nil *tracer (the timed runs) records nothing: start returns a nil
// span and end on a nil span is a no-op.

type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = none
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Count is the work done inside the span in the span's own unit
	// (ops for a run, messages for a replay, pages for diffenc).
	Count int64 `json:"count"`
	// SelfNS is the duration minus the part child spans cover.
	SelfNS int64 `json:"self_ns"`

	tr *tracer
}

type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []*span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Workload: t.workload, Name: name, tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	s.StartNS = time.Since(t.origin).Nanoseconds()
	return s
}

func (s *span) end(count int64) {
	if s == nil {
		return
	}
	s.EndNS = time.Since(s.tr.origin).Nanoseconds()
	s.Count = count
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	Spans   int   `json:"spans"`
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// write computes self times and writes every span, with per-name
// totals, to path. Children of one parent never overlap here (the
// harness is sequential), so self time is duration minus the children's
// durations.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		s.SelfNS = s.EndNS - s.StartNS
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			t.spans[s.Parent-1].SelfNS -= s.EndNS - s.StartNS
		}
	}
	byName := make(map[string]*spanTotals)
	for _, s := range t.spans {
		tot := byName[s.Name]
		if tot == nil {
			tot = &spanTotals{}
			byName[s.Name] = tot
		}
		tot.Spans++
		tot.Count += s.Count
		tot.TotalNS += s.EndNS - s.StartNS
		tot.SelfNS += s.SelfNS
	}
	data, err := json.MarshalIndent(struct {
		ByName map[string]*spanTotals `json:"by_name"`
		Spans  []*span                `json:"spans"`
	}{byName, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
