package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans live in memory
// for the whole run and are written out once, when the run ends.
type Span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // 0 = root
	Job    int64  `json:"job"`
}

// Tracer records spans. A nil *Tracer records nothing, so untraced
// code paths pay one nil check per boundary.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its ID; pass the ID to End and, as
// parent, to the spans of calls it makes.
func (t *Tracer) Begin(name string, parent int, job int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Name: name, Start: now, End: -1, Parent: parent, Job: job})
	return len(t.spans)
}

// End closes the span opened by Begin.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records a span whose interval was measured elsewhere, such as a
// phase duration a layer reports about itself.
func (t *Tracer) Add(name string, parent int, job int64, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Job: job})
	t.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes every closed span as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(map[string]any{"spans": t.Spans()})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval covered by at least one child. Children
// may nest, overlap one another (concurrent calls) or stick out of the
// parent; overlapping cover is counted once and only the part inside
// the parent is subtracted.
func SelfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		flush := func() {
			if curEnd > curStart {
				covered += curEnd - curStart
			}
		}
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				flush()
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		flush()
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerTimes aggregates self time per span name.
type layerTimes struct {
	self  map[string][]int64 // ns, one entry per span
	total map[string]int64
}

func aggregate(spans []Span) layerTimes {
	st := SelfTimes(spans)
	lt := layerTimes{self: map[string][]int64{}, total: map[string]int64{}}
	for _, s := range spans {
		lt.self[s.Name] = append(lt.self[s.Name], st[s.ID])
		lt.total[s.Name] += st[s.ID]
	}
	return lt
}

// meanMs is the mean self time of the named spans, in milliseconds.
func (lt layerTimes) meanMs(name string) float64 {
	v := lt.self[name]
	if len(v) == 0 {
		return 0
	}
	return float64(lt.total[name]) / float64(len(v)) / 1e6
}
