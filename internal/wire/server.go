package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrServerClosed is returned by Serve on a server that has been shut
// down.
var ErrServerClosed = errors.New("wire: server closed")

// Listen opens a wire listener, the counterpart of Dial: a host:port
// TCP address, or a unix-domain socket path given as
// "unix:/path/to.sock". A socket file left at the path by an earlier
// run (one that did not close its listener) is replaced; any other
// file there is left in place and Listen fails.
func Listen(addr string) (net.Listener, error) {
	path, ok := strings.CutPrefix(addr, "unix:")
	if !ok {
		return net.Listen("tcp", addr)
	}
	if fi, err := os.Lstat(path); err == nil {
		if fi.Mode()&os.ModeSocket == 0 {
			return nil, fmt.Errorf("wire: listen %s: file exists and is not a socket", path)
		}
		os.Remove(path) // a failure surfaces as the bind error below
	}
	return net.Listen("unix", path)
}

// ResponseWriter serializes a connection's response frames, written by
// its concurrent request handlers, onto one buffered writer, flushing
// per frame.
type ResponseWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
}

// Write sends one frame. A write error means the peer is gone; the
// connection's reader observes the same failure and retires it.
func (w *ResponseWriter) Write(f Frame) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := WriteFrame(w.bw, f); err == nil {
		w.bw.Flush()
	}
}

// Nack answers the request reqID with a NACK frame.
func (w *ResponseWriter) Nack(reqID uint32, code NackCode, msg string) {
	w.Write(Frame{Op: OpNack, ReqID: reqID, Payload: (&Nack{Code: code, Msg: msg}).Encode()})
}

// Server is the frame server both service tiers run: the worker's
// wire plane (osmserve) and the gateway's wire proxy (osmgate) differ
// only in their Handler.
//
// Per connection, one reader goroutine parses frames and dispatches
// each request to its own goroutine, so a long step never blocks a
// register peek multiplexed over the same connection. Responses go
// through the connection's ResponseWriter.
//
// Shutdown drains: the listener closes, readers stop, every dispatched
// request completes and its response is flushed before its connection
// closes.
type Server struct {
	// Handler serves one request frame on its own goroutine and
	// answers it through w, echoing the frame's request id.
	Handler func(w *ResponseWriter, f Frame)
	// Connections, if non-nil, counts accepted connections.
	Connections *atomic.Uint64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	connWG sync.WaitGroup
}

// Serve accepts connections until the listener fails or Shutdown
// closes it, and then returns nil. It blocks; run it in its own
// goroutine. On a server already shut down it returns
// ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		if s.Connections != nil {
			s.Connections.Add(1)
		}
		go s.serveConn(conn)
	}
}

// Shutdown closes the listener, stops the connection readers, waits
// for in-flight requests to complete and their responses to flush,
// then closes the connections. The context bounds the wait; on expiry
// the remaining connections are closed at once and the context's
// error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// A past read deadline unblocks each reader's pending ReadFrame;
	// the reader then waits out its handlers, flushes and closes.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, c := range conns {
			c.Close()
		}
		return ctx.Err()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	w := &ResponseWriter{bw: bufio.NewWriter(conn)}
	br := bufio.NewReader(conn)
	var handlers sync.WaitGroup
	for {
		f, err := ReadFrame(br)
		if err != nil {
			break
		}
		handlers.Add(1)
		go func(f Frame) {
			defer handlers.Done()
			s.Handler(w, f)
		}(f)
	}
	// Drain contract: every dispatched request completes and its
	// response frame is flushed before the connection closes.
	handlers.Wait()
	w.mu.Lock()
	w.bw.Flush()
	w.mu.Unlock()
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}
