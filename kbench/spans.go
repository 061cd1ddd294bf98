package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// Fig. 5 cell, scale run, sweep or daemon job share a Run id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: no parent
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in by write
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes call the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Start: now, End: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as a
// daemon job's own timestamps or a progress callback.
func (t *tracer) add(name, run string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return len(t.spans)
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][][2]int64)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end int64
		end = s.Start
		for _, c := range iv {
			lo := max(c[0], end)
			if c[1] > lo {
				covered += c[1] - lo
				end = c[1]
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// write stores every span, with its self time, as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	for i := range spans {
		spans[i].Self = self[spans[i].ID].Nanoseconds()
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
