package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gate"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/wire"
)

// The fabric workloads host, in this one process, two osmserve
// workers (server.Manager behind HTTP and wire listeners on loopback)
// and an osmgate gateway (gate.Gateway with its HTTP API and wire
// proxy). Each worker runs one step worker, and the workloads run at
// most two client goroutines, so the load stays within two host
// threads.

// numWorkers is the worker count of the fabric.
const numWorkers = 2

type worker struct {
	id       string
	mgr      *server.Manager
	hs       *http.Server
	ws       *server.WireServer
	url      string
	wireAddr string
}

type fabric struct {
	workers []*worker
	gw      *gate.Gateway
	gwHTTP  *http.Server
	wp      *gate.WireProxy
	gwURL   string
	gwWire  string
	serving sync.WaitGroup
}

// serve runs srv on a fresh loopback listener and returns its address.
func (f *fabric) serve(srv func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		srv(ln)
	}()
	return ln.Addr().String(), nil
}

// startFabric starts the workers and the gateway and registers the
// workers the way osmserve does at start-up.
func startFabric(wcfg server.Config, parkDir string) (*fabric, error) {
	wcfg.Workers = 1
	wcfg.ParkDir = parkDir
	f := &fabric{gw: gate.New(gate.Config{ParkDir: parkDir})}
	f.gw.Start()
	f.gwHTTP = &http.Server{Handler: f.gw.Handler()}
	f.wp = gate.NewWireProxy(f.gw)
	addr, err := f.serve(f.gwHTTP.Serve)
	if err != nil {
		f.close()
		return nil, err
	}
	f.gwURL = "http://" + addr
	if f.gwWire, err = f.serve(f.wp.Serve); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < numWorkers; i++ {
		w := &worker{id: fmt.Sprintf("w%d", i+1), mgr: server.NewManager(wcfg)}
		w.mgr.Start()
		w.hs = &http.Server{Handler: w.mgr.Handler()}
		w.ws = server.NewWireServer(w.mgr)
		f.workers = append(f.workers, w)
		addr, err := f.serve(w.hs.Serve)
		if err != nil {
			f.close()
			return nil, err
		}
		w.url = "http://" + addr
		if w.wireAddr, err = f.serve(w.ws.Serve); err != nil {
			f.close()
			return nil, err
		}
		if err := gate.RegisterWorker(f.gwURL, w.id, w.url, w.wireAddr, 5*time.Second); err != nil {
			f.close()
			return nil, fmt.Errorf("registering %s: %w", w.id, err)
		}
	}
	for _, w := range f.gw.Workers() {
		if w.State != gate.WorkerHealthy {
			f.close()
			return nil, fmt.Errorf("worker %s registered as %s", w.ID, w.State)
		}
	}
	return f, nil
}

// close shuts the gateway and the workers down and waits for every
// listener goroutine to return.
func (f *fabric) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.wp.Shutdown(ctx)
	f.gwHTTP.Shutdown(ctx)
	f.gw.Close()
	for _, w := range f.workers {
		w.ws.Shutdown(ctx)
		w.hs.Shutdown(ctx)
		w.mgr.Close()
	}
	f.serving.Wait()
}

func (f *fabric) worker(id string) *worker {
	for _, w := range f.workers {
		if w.id == id {
			return w
		}
	}
	return nil
}

// client is one closed-loop client: a keep-alive HTTP client, one wire
// connection to the gateway, and the direct wire connections its
// sampled requests use to bypass the gateway.
type client struct {
	hc     *http.Client
	gw     *wire.Client
	direct map[string]*wire.Client
	f      *fabric
}

func (f *fabric) newClient() (*client, error) {
	c := &client{
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: time.Minute},
		direct: make(map[string]*wire.Client),
		f:      f,
	}
	var err error
	if c.gw, err = wire.Dial(f.gwWire); err != nil {
		return nil, err
	}
	for _, w := range f.workers {
		d, err := wire.Dial(w.wireAddr)
		if err != nil {
			c.close()
			return nil, err
		}
		c.direct[w.id] = d
	}
	return c, nil
}

func (c *client) close() {
	if c.gw != nil {
		c.gw.Close()
	}
	for _, d := range c.direct {
		d.Close()
	}
	c.hc.CloseIdleConnections()
}

// do issues one HTTP request and returns status, headers and body.
func (c *client) do(method, url string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// want converts an unexpected HTTP status into an error.
func want(status, code int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if status != code {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	return nil
}

// create places a session through the gateway and returns its id and
// the worker that admitted it.
func (c *client) create(spec runner.Spec) (string, string, error) {
	body, _ := json.Marshal(server.CreateRequest{Spec: spec})
	status, hdr, data, err := c.do(http.MethodPost, c.f.gwURL+"/v1/sessions", body)
	if err := want(status, http.StatusCreated, data, err); err != nil {
		return "", "", fmt.Errorf("create: %w", err)
	}
	var info server.Info
	if err := json.Unmarshal(data, &info); err != nil {
		return "", "", err
	}
	return info.ID, hdr.Get(gate.WorkerHeader), nil
}

// delete evicts a session through the gateway, wherever it lives.
func (c *client) delete(id string) error {
	status, _, data, err := c.do(http.MethodDelete, c.f.gwURL+"/v1/sessions/"+id, nil)
	return want(status, http.StatusOK, data, err)
}

// httpStep steps a session by cycles over HTTP at base (the gateway
// or a worker).
func (c *client) httpStep(base, id string, cycles uint64) (server.StepResult, error) {
	body, _ := json.Marshal(server.StepRequest{Cycles: cycles})
	status, _, data, err := c.do(http.MethodPost, base+"/v1/sessions/"+id+"/step", body)
	var res server.StepResult
	if err := want(status, http.StatusOK, data, err); err != nil {
		return res, err
	}
	return res, json.Unmarshal(data, &res)
}

// scrape reads a Prometheus text endpoint into sample name (with its
// labels) → value.
func (c *client) scrape(url string) (map[string]float64, error) {
	status, _, data, err := c.do(http.MethodGet, url+"/metrics", nil)
	if err := want(status, http.StatusOK, data, err); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// workerTotals sums the named worker counters over the fleet.
func (c *client) workerTotals(names ...string) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, w := range c.f.workers {
		m, err := c.scrape(w.url)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			v, ok := m[n]
			if !ok {
				return nil, fmt.Errorf("worker %s exports no %s", w.id, n)
			}
			sum[n] += v
		}
	}
	return sum, nil
}

// regsMatch compares a wire register dump with reference registers.
func regsMatch(got []wire.Reg, ref []runner.Reg) bool {
	if len(got) != len(ref) {
		return false
	}
	for i := range got {
		if got[i].Name != ref[i].Name || got[i].Value != ref[i].Value {
			return false
		}
	}
	return true
}
