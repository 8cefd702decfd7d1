// Osmgate is the session fabric gateway: it consistent-hashes
// sessions over a fleet of registered osmserve workers, proxies both
// the HTTP/JSON control plane and the binary wire protocol, and
// migrates sessions live — for worker drains, manual rebalancing, and
// resurrection of parked idle-evicted sessions. Clients speak to it
// exactly as they would to one osmserve; the fleet behind it is
// invisible except for the X-Osmgate-Worker response header.
//
// Usage:
//
//	osmgate -addr :9090 -wire-addr :9091 -park-dir /var/lib/osm/park
//	osmserve -addr :8080 -wire-addr :8081 -register http://localhost:9090 \
//	         -park-dir /var/lib/osm/park
//	osmserve -addr :8180 -wire-addr :8181 -register http://localhost:9090 \
//	         -park-dir /var/lib/osm/park
//
//	curl -s localhost:9090/v1/sessions -d '{"target":"strongarm","workload":"gsm/dec","n":60}'
//	curl -s localhost:9090/v1/sessions/<id>/step -d '{"cycles":100000}'
//	osmwire -via localhost:9091 step <id> 100000
//	curl -s localhost:9090/v1/workers
//	curl -s localhost:9090/v1/admin/migrate -d '{"session":"<id>"}'
//
// Workers self-register (osmserve -register) and are health-probed;
// a worker's SIGTERM asks the gateway to migrate its sessions out
// before it exits, so rolling a fleet loses no running session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gate"
	"repro/internal/wire"
)

func main() {
	var (
		addr           = flag.String("addr", ":9090", "listen address (HTTP control plane)")
		wireAddr       = flag.String("wire-addr", "", "listen address for the binary wire protocol (empty disables)")
		parkDir        = flag.String("park-dir", "", "directory of parked session snapshots to resurrect on touch (share it with the workers)")
		replicas       = flag.Int("replicas", 64, "virtual nodes per worker on the hash ring")
		healthInterval = flag.Duration("health-interval", time.Second, "worker health probe cadence")
		healthTimeout  = flag.Duration("health-timeout", 2*time.Second, "per-probe timeout")
		maxFails       = flag.Int("max-fails", 3, "consecutive probe failures before a worker leaves the ring")
		proxyTimeout   = flag.Duration("proxy-timeout", 60*time.Second, "per-forwarded-request timeout")
		drainTimeout   = flag.Duration("drain-timeout", 15*time.Second, "shutdown: how long in-flight requests may finish")
		quiet          = flag.Bool("quiet", false, "suppress per-event log lines")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "osmgate: ", log.LstdFlags)
	if *parkDir != "" {
		if err := os.MkdirAll(*parkDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "osmgate:", err)
			os.Exit(1)
		}
	}
	cfg := gate.Config{
		Replicas:       *replicas,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		MaxFails:       *maxFails,
		ProxyTimeout:   *proxyTimeout,
		ParkDir:        *parkDir,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	g := gate.New(cfg)
	g.Start()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           g.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 2)
	go func() {
		logger.Printf("listening on %s (ring replicas %d, park dir %q)", *addr, *replicas, *parkDir)
		errCh <- srv.ListenAndServe()
	}()

	var wp *gate.WireProxy
	if *wireAddr != "" {
		ln, err := wire.Listen(*wireAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "osmgate:", err)
			os.Exit(1)
		}
		wp = gate.NewWireProxy(g)
		go func() {
			logger.Printf("wire protocol on %s", ln.Addr())
			if err := wp.Serve(ln); err != nil {
				errCh <- fmt.Errorf("wire listener: %w", err)
			}
		}()
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Printf("%v: draining (%v for in-flight requests)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		var derr error
		if wp != nil {
			derr = wp.Shutdown(ctx)
		}
		if err := srv.Shutdown(ctx); err != nil && derr == nil {
			derr = err
		}
		cancel()
		g.Close()
		if derr != nil {
			logger.Printf("shutdown: %v", derr)
			os.Exit(1)
		}
		logger.Printf("drained cleanly")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "osmgate:", err)
			os.Exit(1)
		}
	}
}
