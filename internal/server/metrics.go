package server

import (
	"io"
	"sync/atomic"

	"repro/internal/prom"
)

// stepLatencyBuckets are the step-latency histogram upper bounds in
// seconds.
var stepLatencyBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10,
}

// Metrics is the service's hand-rolled Prometheus instrumentation:
// atomic counters, a live-sessions gauge closure and a fixed-bucket
// step-latency histogram, rendered by Render in the text exposition
// format (internal/prom). No client library — the stdlib-only
// constraint is part of the design.
type Metrics struct {
	SessionsCreated  atomic.Uint64
	SessionsRejected atomic.Uint64 // admission-control 429s
	EvictedAPI       atomic.Uint64 // DELETE
	EvictedIdle      atomic.Uint64 // janitor
	EvictedDrain     atomic.Uint64 // shutdown drain
	Cycles           atomic.Uint64 // cycles simulated by step requests
	StepRequests     atomic.Uint64
	Panics           atomic.Uint64 // requests that panicked (isolated)
	SnapshotBytesOut atomic.Uint64 // snapshot downloads
	SnapshotBytesIn  atomic.Uint64 // restore uploads
	HTTPRequests     atomic.Uint64
	StepsRejected    atomic.Uint64 // run-queue backpressure refusals
	StepQuanta       atomic.Uint64 // scheduler quanta executed
	WireRequests     atomic.Uint64 // binary-protocol requests received
	WireNacks        atomic.Uint64 // binary-protocol requests refused
	WireConnections  atomic.Uint64 // binary-protocol connections accepted
	SessionsParked   atomic.Uint64 // idle evictions parked as snapshots

	// Live reports the current number of live sessions, read at
	// scrape time.
	Live func() int
	// QueueDepth reports step jobs in flight (queued or running),
	// read at scrape time.
	QueueDepth func() int

	StepLatency *prom.Histogram
}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics {
	return &Metrics{StepLatency: prom.NewHistogram(stepLatencyBuckets)}
}

// scrape reads a scrape-time gauge; an unwired one reads zero.
func scrape(f func() int) int {
	if f == nil {
		return 0
	}
	return f()
}

// Render writes every metric in the Prometheus text exposition
// format.
func (m *Metrics) Render(w io.Writer) {
	prom.Gauge(w, "osmserve_sessions_live", "Sessions currently resident.", scrape(m.Live))
	prom.Counter(w, "osmserve_sessions_created_total", "Sessions admitted and created.", m.SessionsCreated.Load())
	prom.Counter(w, "osmserve_sessions_rejected_total", "Session creations refused by admission control.", m.SessionsRejected.Load())
	prom.Family(w, "osmserve_sessions_evicted_total", "counter", "Sessions removed, by reason.", "reason",
		prom.Sample{Label: "api", Value: m.EvictedAPI.Load()},
		prom.Sample{Label: "idle", Value: m.EvictedIdle.Load()},
		prom.Sample{Label: "drain", Value: m.EvictedDrain.Load()})
	prom.Counter(w, "osmserve_cycles_simulated_total", "Clock cycles simulated by step requests.", m.Cycles.Load())
	prom.Counter(w, "osmserve_step_requests_total", "Step requests served.", m.StepRequests.Load())
	prom.Counter(w, "osmserve_request_panics_total", "Requests that panicked and were isolated.", m.Panics.Load())
	prom.Family(w, "osmserve_snapshot_bytes_total", "counter", "Snapshot bytes transferred, by direction.", "dir",
		prom.Sample{Label: "download", Value: m.SnapshotBytesOut.Load()},
		prom.Sample{Label: "upload", Value: m.SnapshotBytesIn.Load()})
	prom.Counter(w, "osmserve_http_requests_total", "HTTP requests received.", m.HTTPRequests.Load())
	prom.Counter(w, "osmserve_wire_requests_total", "Binary wire-protocol requests received.", m.WireRequests.Load())
	prom.Counter(w, "osmserve_wire_nacks_total", "Binary wire-protocol requests refused with a NACK.", m.WireNacks.Load())
	prom.Counter(w, "osmserve_wire_connections_total", "Binary wire-protocol connections accepted.", m.WireConnections.Load())
	prom.Counter(w, "osmserve_steps_rejected_total", "Step requests refused by run-queue backpressure.", m.StepsRejected.Load())
	prom.Counter(w, "osmserve_sessions_parked_total", "Idle-evicted sessions parked as snapshot blobs.", m.SessionsParked.Load())
	prom.Counter(w, "osmserve_step_quanta_total", "Scheduler quanta executed.", m.StepQuanta.Load())
	prom.Gauge(w, "osmserve_step_queue_depth", "Step jobs in flight (queued or running).", scrape(m.QueueDepth))
	m.StepLatency.Write(w, "osmserve_step_latency_seconds", "Step request service latency.")
}
