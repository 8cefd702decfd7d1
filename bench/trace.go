package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one call across a layer boundary, timed from the
// benchmark's side of the call. Spans are recorded around calls into
// the program's public API only; nothing inside the program is
// instrumented.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Req groups the spans of one client request or session.
	Req   uint64 `json:"req,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Count is the work done inside the span (cycles, instructions,
	// bytes), so rates are measured where the work happens.
	Count uint64 `json:"count,omitempty"`
}

// Dur returns the span's duration in nanoseconds.
func (s *Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the benchmark ends. A nil
// *Tracer records nothing, so an untraced pass pays one nil check per
// call site. Safe for concurrent use.
//
// Spans live in fixed-size chunks that never move, so a span's slot
// is reserved under the lock and then stamped without it: Begin takes
// its timestamp last and End first, keeping the bookkeeping outside
// the interval being timed.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	chunks [][]Span
	n      int
}

const spanChunk = 4096

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

func (t *Tracer) slot(id int) *Span { return &t.chunks[(id-1)/spanChunk][(id-1)%spanChunk] }

// reserve allocates the next span slot.
func (t *Tracer) reserve() (int, *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n%spanChunk == 0 {
		t.chunks = append(t.chunks, make([]Span, spanChunk))
	}
	t.n++
	return t.n, t.slot(t.n)
}

// Begin opens a span and returns its id (0 when t is nil).
func (t *Tracer) Begin(name string, parent int, req uint64) int {
	if t == nil {
		return 0
	}
	id, sp := t.reserve()
	*sp = Span{ID: id, Parent: parent, Name: name, Req: req}
	sp.Start = time.Since(t.origin).Nanoseconds()
	return id
}

// End closes the span and records the work done inside it. Only the
// goroutine that began a span ends it.
func (t *Tracer) End(id int, count uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	sp := t.slot(id)
	t.mu.Unlock()
	sp.End = now
	sp.Count = count
}

// Child records an aggregate span under parent: the summed duration
// of many calls inside the parent's interval, too short and too many
// to record one by one, laid from the parent's start.
func (t *Tracer) Child(parent int, name string, d time.Duration, count uint64) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	p := *t.slot(parent)
	t.mu.Unlock()
	id, sp := t.reserve()
	*sp = Span{ID: id, Parent: parent, Name: name, Req: p.Req, Start: p.Start, End: p.Start + d.Nanoseconds(), Count: count}
}

// Layer aggregates every span of one name.
type Layer struct {
	Durs  []float64 // durations, ns
	Self  int64     // summed self time, ns
	Total int64     // summed duration, ns
	Count uint64    // summed work
}

// N returns the number of spans.
func (l *Layer) N() int { return len(l.Durs) }

// MedianUS returns the median duration in microseconds.
func (l *Layer) MedianUS() float64 { return Median(l.Durs) / 1e3 }

// MedianMS returns the median duration in milliseconds.
func (l *Layer) MedianMS() float64 { return Median(l.Durs) / 1e6 }

// PerSec returns the work rate over the spans' summed duration.
func (l *Layer) PerSec() float64 { return float64(l.Count) / (float64(l.Total) / 1e9) }

// Layers maps span names to their aggregates.
type Layers map[string]*Layer

// Get returns the named aggregate, empty when no span had the name
// (its statistics are then NaN, which the report leaves unset).
func (ls Layers) Get(name string) *Layer {
	if l := ls[name]; l != nil {
		return l
	}
	return &Layer{}
}

// Layers groups the closed spans by name. A span's self time is its
// duration minus the durations of its children; children of one span
// run one after another, so they never overlap.
func (t *Tracer) Layers() Layers {
	spans := t.Spans()
	child := make([]int64, len(spans)+1)
	for i := range spans {
		s := &spans[i]
		if s.End != 0 && s.Parent != 0 {
			child[s.Parent] += s.Dur()
		}
	}
	out := make(Layers)
	for i := range spans {
		s := &spans[i]
		if s.End == 0 {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &Layer{}
			out[s.Name] = l
		}
		l.Durs = append(l.Durs, float64(s.Dur()))
		l.Total += s.Dur()
		l.Self += s.Dur() - child[s.ID]
		l.Count += s.Count
	}
	return out
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c[:min(len(c), t.n-len(out))]...)
	}
	return out
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// tracePass is one pass's spans in the trace file.
type tracePass struct {
	Workload string `json:"workload"`
	Spans    []Span `json:"spans"`
}

// writeSpans writes every pass's spans as one JSON document.
func writeSpans(path string, passes []tracePass) error {
	data, err := json.Marshal(map[string]any{"passes": passes})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
