package gate

import (
	"io"
	"sync/atomic"

	"repro/internal/prom"
)

// Metrics is the gateway's hand-rolled Prometheus instrumentation,
// rendered through the same internal/prom writers as the worker's
// (internal/server): atomic counters plus scrape-time gauges.
type Metrics struct {
	ProxiedHTTP     atomic.Uint64 // HTTP requests forwarded to a worker
	ProxiedWire     atomic.Uint64 // wire frames forwarded to a worker
	ProxyErrors     atomic.Uint64 // forwards that failed to reach a worker
	BackpressHTTP   atomic.Uint64 // worker 429s propagated to clients
	BackpressWire   atomic.Uint64 // worker backpressure NACKs propagated
	SessionsCreated atomic.Uint64 // sessions placed through the gateway
	SessionsEvicted atomic.Uint64 // sessions deleted through the gateway

	MigrationsDrain     atomic.Uint64 // migrate-out of a draining worker
	MigrationsRebalance atomic.Uint64 // admin-requested migrations
	MigrationsResurrect atomic.Uint64 // parked sessions restored on touch
	MigrationFailures   atomic.Uint64

	WireConnections atomic.Uint64 // client wire connections accepted
	HealthProbes    atomic.Uint64 // worker health checks issued

	// Scrape-time gauges, wired by the Gateway.
	Workers func() map[string]int // worker count by state
	Routes  func() int            // routed sessions
}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics { return &Metrics{} }

// migrations returns the total across reasons.
func (m *Metrics) migrations() uint64 {
	return m.MigrationsDrain.Load() + m.MigrationsRebalance.Load() + m.MigrationsResurrect.Load()
}

// Render writes every metric in the Prometheus text exposition
// format.
func (m *Metrics) Render(w io.Writer) {
	if m.Workers != nil {
		byState := m.Workers()
		samples := make([]prom.Sample, len(workerStates))
		for i, st := range workerStates {
			samples[i] = prom.Sample{Label: string(st), Value: uint64(byState[string(st)])}
		}
		prom.Family(w, "osmgate_workers", "gauge", "Registered workers by state.", "state", samples...)
	}
	routes := 0
	if m.Routes != nil {
		routes = m.Routes()
	}
	prom.Gauge(w, "osmgate_sessions_routed", "Sessions with a live route entry.", routes)
	prom.Family(w, "osmgate_proxied_requests_total", "counter", "Requests forwarded to workers, by plane.", "plane",
		prom.Sample{Label: "http", Value: m.ProxiedHTTP.Load()},
		prom.Sample{Label: "wire", Value: m.ProxiedWire.Load()})
	prom.Family(w, "osmgate_backpressure_total", "counter", "Worker backpressure propagated to clients, by plane.", "plane",
		prom.Sample{Label: "http", Value: m.BackpressHTTP.Load()},
		prom.Sample{Label: "wire", Value: m.BackpressWire.Load()})
	prom.Family(w, "osmgate_migrations_total", "counter", "Completed session migrations, by reason.", "reason",
		prom.Sample{Label: "drain", Value: m.MigrationsDrain.Load()},
		prom.Sample{Label: "rebalance", Value: m.MigrationsRebalance.Load()},
		prom.Sample{Label: "resurrect", Value: m.MigrationsResurrect.Load()})
	prom.Counter(w, "osmgate_migration_failures_total", "Migrations that failed and were rolled back.", m.MigrationFailures.Load())
	prom.Counter(w, "osmgate_proxy_errors_total", "Forwards that failed to reach their worker.", m.ProxyErrors.Load())
	prom.Counter(w, "osmgate_sessions_created_total", "Sessions placed through the gateway.", m.SessionsCreated.Load())
	prom.Counter(w, "osmgate_sessions_evicted_total", "Sessions deleted through the gateway.", m.SessionsEvicted.Load())
	prom.Counter(w, "osmgate_wire_connections_total", "Client wire connections accepted.", m.WireConnections.Load())
	prom.Counter(w, "osmgate_health_probes_total", "Worker health probes issued.", m.HealthProbes.Load())
}
