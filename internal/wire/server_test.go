package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startServer serves s on a loopback TCP listener and returns its
// address plus a channel carrying Serve's result.
func startServer(t *testing.T, s *Server) (string, <-chan error) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	return ln.Addr().String(), served
}

func echo(w *ResponseWriter, f Frame) { w.Write(f) }

// gatedEcho returns a handler that reports each request on started,
// then echoes it once release is closed.
func gatedEcho(started chan<- struct{}, release <-chan struct{}) func(*ResponseWriter, Frame) {
	return func(w *ResponseWriter, f Frame) {
		started <- struct{}{}
		<-release
		w.Write(f)
	}
}

// A request in flight when Shutdown starts still completes and its
// frame reaches the client; only then does the connection close.
func TestServerShutdownFlushesInFlight(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	var conns atomic.Uint64
	s := &Server{Handler: gatedEcho(started, release), Connections: &conns}
	addr, served := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		f   Frame
		err error
	}
	got := make(chan result, 1)
	go func() {
		f, err := c.RoundTrip(OpStep, []byte("in flight"))
		got <- result{f, err}
	}()
	<-started
	if n := conns.Load(); n != 1 {
		t.Fatalf("counted %d connections, want 1", n)
	}

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	// Shutdown closes the listener before it waits for the handler.
	deadline := time.Now().Add(10 * time.Second)
	for {
		d, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		d.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown began")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	default:
	}
	close(release)

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request lost to shutdown: %v", r.err)
	}
	if r.f.Op != OpStep || string(r.f.Payload) != "in flight" {
		t.Fatalf("in-flight response = %v %q", r.f.Op, r.f.Payload)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
	if _, err := c.RoundTrip(OpStep, nil); err == nil {
		t.Fatal("request succeeded on a drained connection")
	}
}

// A Shutdown whose context expires closes the remaining connections
// at once and reports the context's error.
func TestServerShutdownContextExpires(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	defer close(release)
	s := &Server{Handler: gatedEcho(started, release)}
	addr, served := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	failed := make(chan error, 1)
	go func() {
		_, err := c.RoundTrip(OpStep, nil)
		failed <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want %v", err, context.DeadlineExceeded)
	}
	if err := <-failed; err == nil {
		t.Fatal("request on a torn-down connection succeeded")
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
}

func TestServeAfterShutdown(t *testing.T) {
	s := &Server{Handler: echo}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := s.Serve(ln); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after Shutdown = %v, want %v", err, ErrServerClosed)
	}
}

// Listen("unix:…") is Dial's counterpart: it round-trips, replaces a
// socket left behind by an earlier run, and refuses to touch any
// other file at the path.
func TestListenUnix(t *testing.T) {
	dir := t.TempDir()
	roundTrip := func(addr string) {
		t.Helper()
		ln, err := Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		s := &Server{Handler: echo}
		served := make(chan error, 1)
		go func() { served <- s.Serve(ln) }()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.RoundTrip(OpRegisters, []byte("unix"))
		c.Close()
		if err != nil || string(f.Payload) != "unix" {
			t.Fatalf("round trip over %s = %q, %v", addr, f.Payload, err)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	}

	fresh := filepath.Join(dir, "fresh.sock")
	roundTrip("unix:" + fresh)

	// A listener that does not unlink on close leaves its socket file
	// behind, as a killed process does.
	stale := filepath.Join(dir, "stale.sock")
	ln, err := net.Listen("unix", stale)
	if err != nil {
		t.Fatal(err)
	}
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()
	if fi, err := os.Lstat(stale); err != nil || fi.Mode()&os.ModeSocket == 0 {
		t.Fatalf("stale socket not left behind: %v", err)
	}
	roundTrip("unix:" + stale)

	regular := filepath.Join(dir, "notes.txt")
	content := []byte("not a socket")
	if err := os.WriteFile(regular, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if ln, err := Listen("unix:" + regular); err == nil || !strings.Contains(err.Error(), "not a socket") {
		if ln != nil {
			ln.Close()
		}
		t.Fatalf("Listen over a regular file: %v", err)
	}
	if data, err := os.ReadFile(regular); err != nil || !bytes.Equal(data, content) {
		t.Fatalf("regular file at the socket path changed: %q, %v", data, err)
	}
}
