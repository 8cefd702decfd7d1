package gate

import (
	"strings"
	"testing"
)

// The gateway's exposition text, byte for byte, for a fixed set of
// counter and gauge values: the twin of the worker's TestMetricsRender.
func TestMetricsRender(t *testing.T) {
	m := NewMetrics()
	m.ProxiedHTTP.Add(1)
	m.ProxiedWire.Add(2)
	m.ProxyErrors.Add(3)
	m.BackpressHTTP.Add(4)
	m.BackpressWire.Add(5)
	m.SessionsCreated.Add(6)
	m.SessionsEvicted.Add(7)
	m.MigrationsDrain.Add(8)
	m.MigrationsRebalance.Add(9)
	m.MigrationsResurrect.Add(10)
	m.MigrationFailures.Add(11)
	m.WireConnections.Add(12)
	m.HealthProbes.Add(13)
	m.Workers = func() map[string]int {
		return map[string]int{"joining": 14, "healthy": 15, "unhealthy": 16, "draining": 17, "gone": 18}
	}
	m.Routes = func() int { return 19 }
	var b strings.Builder
	m.Render(&b)
	if got := b.String(); got != goldenMetrics {
		t.Fatalf("metrics output differs from the golden rendering:\n%s", got)
	}
}

// goldenMetrics is the exposition text for TestMetricsRender's
// values; see the worker's twin in internal/server.
const goldenMetrics = `# HELP osmgate_workers Registered workers by state.
# TYPE osmgate_workers gauge
osmgate_workers{state="joining"} 14
osmgate_workers{state="healthy"} 15
osmgate_workers{state="unhealthy"} 16
osmgate_workers{state="draining"} 17
osmgate_workers{state="gone"} 18
# HELP osmgate_sessions_routed Sessions with a live route entry.
# TYPE osmgate_sessions_routed gauge
osmgate_sessions_routed 19
# HELP osmgate_proxied_requests_total Requests forwarded to workers, by plane.
# TYPE osmgate_proxied_requests_total counter
osmgate_proxied_requests_total{plane="http"} 1
osmgate_proxied_requests_total{plane="wire"} 2
# HELP osmgate_backpressure_total Worker backpressure propagated to clients, by plane.
# TYPE osmgate_backpressure_total counter
osmgate_backpressure_total{plane="http"} 4
osmgate_backpressure_total{plane="wire"} 5
# HELP osmgate_migrations_total Completed session migrations, by reason.
# TYPE osmgate_migrations_total counter
osmgate_migrations_total{reason="drain"} 8
osmgate_migrations_total{reason="rebalance"} 9
osmgate_migrations_total{reason="resurrect"} 10
# HELP osmgate_migration_failures_total Migrations that failed and were rolled back.
# TYPE osmgate_migration_failures_total counter
osmgate_migration_failures_total 11
# HELP osmgate_proxy_errors_total Forwards that failed to reach their worker.
# TYPE osmgate_proxy_errors_total counter
osmgate_proxy_errors_total 3
# HELP osmgate_sessions_created_total Sessions placed through the gateway.
# TYPE osmgate_sessions_created_total counter
osmgate_sessions_created_total 6
# HELP osmgate_sessions_evicted_total Sessions deleted through the gateway.
# TYPE osmgate_sessions_evicted_total counter
osmgate_sessions_evicted_total 7
# HELP osmgate_wire_connections_total Client wire connections accepted.
# TYPE osmgate_wire_connections_total counter
osmgate_wire_connections_total 12
# HELP osmgate_health_probes_total Worker health probes issued.
# TYPE osmgate_health_probes_total counter
osmgate_health_probes_total 13
`
