package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartNS and EndNS count from the tracer's creation.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// SelfNS is the duration minus the time covered by child spans.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root span) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
}

// write fills in self times and writes the spans as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].SelfNS -= s.EndNS - s.StartNS
		}
	}
	doc := map[string]any{"meta": meta, "spans": t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
