package gate

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// TestProxyBodyLimit pins that the gateway relays no body cut short.
// doMethod reads a worker response at the limit whole and refuses one
// byte more with an error naming the limit, which a client sees as a
// 502; a client body past the limit is refused with 400 and never
// reaches the worker.
func TestProxyBodyLimit(t *testing.T) {
	const limit = 1 << 10
	var posts atomic.Int32
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		w.Write(bytes.Repeat([]byte{'x'}, n))
	}))
	defer worker.Close()
	g := New(Config{})
	g.maxBody = limit

	_, _, body, err := g.doMethod(http.MethodGet, worker.URL+"/?n="+strconv.Itoa(limit), "", nil)
	if err != nil || len(body) != limit {
		t.Fatalf("a body at the limit: %d bytes, %v; want %d bytes", len(body), err, limit)
	}
	_, _, body, err = g.doMethod(http.MethodGet, worker.URL+"/?n="+strconv.Itoa(limit+1), "", nil)
	if err == nil || !strings.Contains(err.Error(), "1024-byte limit") {
		t.Fatalf("a body past the limit: %d bytes, %v; want an error naming the limit", len(body), err)
	}

	g.workers["w1"] = &Worker{ID: "w1", Addr: worker.URL, State: WorkerHealthy}
	g.adoptRoute("s-000001", "w1")
	h := g.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/s-000001/trace?n="+strconv.Itoa(limit+1), nil))
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "1024-byte limit") {
		t.Fatalf("oversized worker response relayed as %d %q, want 502 naming the limit", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/s-000001/step", bytes.NewReader(make([]byte, limit+1))))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("oversized client body answered %d %q, want 400", rec.Code, rec.Body)
	}
	if n := posts.Load(); n != 0 {
		t.Fatalf("the worker received %d oversized posts", n)
	}
}
