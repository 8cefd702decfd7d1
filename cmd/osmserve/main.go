// Osmserve is the simulation service: it hosts concurrent interactive
// simulation sessions — each a cycle-accurate OSM model — behind a
// bounded run-queue scheduler, over an HTTP/JSON control plane with
// admission control, idle-session eviction and live observability.
// An optional binary wire listener (-wire-addr) serves the hot path
// — step, register/memory peeks, trace pulls — without JSON or
// per-request connection setup; see internal/wire and cmd/osmwire.
//
// Usage:
//
//	osmserve -addr :8080
//	osmserve -addr :8080 -wire-addr :8081 -max-sessions 128
//
// A quick session from the shell:
//
//	curl -s localhost:8080/v1/sessions -d '{"target":"strongarm","workload":"gsm/dec","n":60}'
//	curl -s localhost:8080/v1/sessions/s-000001/step -d '{"cycles":100000}'
//	osmwire -addr localhost:8081 step s-000001 100000
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drain gracefully: new sessions are refused, the wire
// listener closes and in-flight frames flush, HTTP requests finish
// (all bounded by -drain-timeout), remaining sessions are evicted,
// then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gate"
	"repro/internal/server"
	"repro/internal/wire"
)

// hostport normalizes a listen address into something another process
// can dial: a bare or wildcard host becomes loopback. Unix-socket
// addresses ("unix:/path") pass through — they are same-host by
// nature.
func hostport(addr string) string {
	if strings.HasPrefix(addr, "unix:") {
		return addr
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (HTTP control plane)")
		wireAddr     = flag.String("wire-addr", "", "listen address for the binary wire protocol (empty disables)")
		maxSessions  = flag.Int("max-sessions", 64, "admission control: maximum resident sessions")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "evict sessions unused for this long")
		maxStep      = flag.Uint64("max-step-cycles", 50_000_000, "cap on cycles per step request")
		stepDeadline = flag.Duration("step-deadline", 10*time.Second, "default per-step-request deadline")
		traceLimit   = flag.Int("trace-limit", 4096, "default per-session trace retention (events)")
		workers      = flag.Int("step-workers", 0, "step scheduler worker pool size (0 = GOMAXPROCS)")
		queuedSteps  = flag.Int("max-queued-steps", 0, "step run-queue bound; beyond it requests get backpressure (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "shutdown: how long in-flight requests may finish")
		quiet        = flag.Bool("quiet", false, "suppress per-event log lines")
		parkDir      = flag.String("park-dir", "", "park idle-evicted sessions as snapshot blobs here (empty discards them)")
		register     = flag.String("register", "", "osmgate base URL to register with (empty = standalone)")
		workerID     = flag.String("worker-id", "", "worker id for gateway registration (default: the advertised address)")
		advertise    = flag.String("advertise", "", "HTTP base URL the gateway should reach this worker at (default derived from -addr)")
		wireAdvert   = flag.String("wire-advertise", "", "wire address the gateway should reach this worker at (default derived from -wire-addr)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "osmserve: ", log.LstdFlags)
	if *parkDir != "" {
		if err := os.MkdirAll(*parkDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "osmserve:", err)
			os.Exit(1)
		}
	}
	cfg := server.Config{
		MaxSessions:         *maxSessions,
		IdleTimeout:         *idleTimeout,
		MaxStepCycles:       *maxStep,
		DefaultStepDeadline: *stepDeadline,
		TraceLimit:          *traceLimit,
		Workers:             *workers,
		MaxQueuedSteps:      *queuedSteps,
		ParkDir:             *parkDir,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	mgr := server.NewManager(cfg)
	mgr.Start()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mgr.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 2)
	go func() {
		logger.Printf("listening on %s (max %d sessions, idle timeout %v)", *addr, *maxSessions, *idleTimeout)
		errCh <- srv.ListenAndServe()
	}()

	var wsrv *server.WireServer
	if *wireAddr != "" {
		// "unix:/path/to.sock" selects a unix-domain socket — the
		// lowest-latency transport for same-host clients; anything
		// else is a TCP host:port.
		ln, err := wire.Listen(*wireAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "osmserve:", err)
			os.Exit(1)
		}
		wsrv = server.NewWireServer(mgr)
		go func() {
			logger.Printf("wire protocol on %s", ln.Addr())
			if err := wsrv.Serve(ln); err != nil {
				errCh <- fmt.Errorf("wire listener: %w", err)
			}
		}()
	}

	// Gateway registration: announce this worker to the fabric and keep
	// retrying until it lands (the gateway may start after the workers).
	id := *workerID
	if *register != "" {
		gw := strings.TrimSuffix(*register, "/")
		adv := *advertise
		if adv == "" {
			adv = "http://" + hostport(*addr)
		}
		wadv := *wireAdvert
		if wadv == "" && *wireAddr != "" {
			wadv = hostport(*wireAddr)
		}
		if id == "" {
			id = adv
		}
		go func() {
			for {
				err := gate.RegisterWorker(gw, id, adv, wadv, 5*time.Second)
				if err == nil {
					logger.Printf("registered with gateway %s as %s (%s, wire %q)", gw, id, adv, wadv)
					return
				}
				logger.Printf("gateway registration: %v (retrying)", err)
				time.Sleep(2 * time.Second)
			}
		}()
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Printf("%v: draining (%v for in-flight requests)", sig, *drainTimeout)
		mgr.Drain() // refuse new sessions while in-flight work completes
		if *register != "" {
			// Hand the resident sessions to the rest of the fleet before
			// tearing anything down: the gateway migrates each one out
			// (snapshot here, restore elsewhere) and returns when no
			// session depends on this worker anymore. Our HTTP plane is
			// still fully up — drain only refuses new sessions — so the
			// snapshot/delete legs land normally.
			gw := strings.TrimSuffix(*register, "/")
			if err := gate.NotifyDrain(gw, id, *drainTimeout); err != nil {
				logger.Printf("gateway migrate-out: %v (continuing shutdown)", err)
			} else {
				logger.Printf("gateway migrated sessions out")
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		var derr error
		if wsrv != nil {
			// Close the wire listener first: readers stop, in-flight
			// frames complete and flush before their connections close.
			derr = wsrv.Shutdown(ctx)
		}
		if err := srv.Shutdown(ctx); err != nil && derr == nil {
			derr = err
		}
		cancel()
		mgr.Close()
		if derr != nil {
			logger.Printf("shutdown: %v", derr)
			os.Exit(1)
		}
		logger.Printf("drained cleanly")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "osmserve:", err)
			os.Exit(1)
		}
	}
}
