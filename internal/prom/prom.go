// Package prom renders the Prometheus text exposition format for the
// service tiers' hand-rolled metrics (internal/server for osmserve,
// internal/gate for osmgate). It is the one place that knows the
// format both tiers must agree on: HELP and TYPE lines, labeled
// families and cumulative histograms. Stdlib only — no client
// library, by design.
package prom

import (
	"fmt"
	"io"
	"sync"
)

// Sample is one member of a labeled family: the label's value and the
// sample's value.
type Sample struct {
	Label string
	Value uint64
}

func header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes one unlabeled counter.
func Counter(w io.Writer, name, help string, v uint64) {
	header(w, name, "counter", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// Gauge writes one unlabeled gauge.
func Gauge(w io.Writer, name, help string, v int) {
	header(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// Family writes a family of type typ ("counter" or "gauge") with one
// sample per value of the single label, in the order given.
func Family(w io.Writer, name, typ, help, label string, samples ...Sample) {
	header(w, name, typ, help)
	for _, s := range samples {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, s.Label, s.Value)
	}
}

// Histogram is a fixed-bucket latency histogram in the Prometheus
// cumulative style (each bucket counts observations <= its bound).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; the last slot is +Inf
	sum    float64
	total  uint64
}

// NewHistogram returns a histogram over the given upper bounds
// (ascending, in seconds).
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Write renders the histogram as the family name.
func (h *Histogram) Write(w io.Writer, name, help string) {
	header(w, name, "histogram", help)
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
