package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/service"
)

// serviceConfig is cmd/mapserve's production default: a text access
// log (discarded here), tracing with a 64-trace ring, and the default
// pool, queue, cache and search workers (GOMAXPROCS).
func serviceConfig() service.Config {
	return service.Config{
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		TraceBuffer: 64,
	}
}

// node is one in-process mapserve instance on a loopback listener.
type node struct {
	svc *service.Service
	srv *http.Server
	url string
}

// nodes is a single server or a cluster.
type nodes struct {
	list []*node
	wg   sync.WaitGroup
}

// startNodes starts n mapserve services on loopback; n ≥ 2 forms a
// cluster in which every node lists every other. Each node's handler
// is wrapped in the benchmark's timing middleware, which records only
// while spans is on.
func startNodes(n int, spans *spanLog) (*nodes, error) {
	listeners := make([]net.Listener, n)
	members := make([]cluster.Member, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		listeners[i] = ln
		members[i] = cluster.Member{ID: fmt.Sprintf("node%d", i), URL: "http://" + ln.Addr().String()}
	}
	ns := &nodes{}
	for i, ln := range listeners {
		cfg := serviceConfig()
		if n > 1 {
			cfg.Cluster = &service.ClusterConfig{Self: members[i], Peers: members}
		}
		svc := service.New(cfg)
		mux := http.NewServeMux()
		mux.Handle("/", service.NewHandler(svc))
		srv := &http.Server{Handler: spans.middleware(i, mux), ReadHeaderTimeout: 5 * time.Second}
		ns.list = append(ns.list, &node{svc: svc, srv: srv, url: members[i].URL})
		ns.wg.Add(1)
		go func(ln net.Listener) {
			defer ns.wg.Done()
			srv.Serve(ln) // returns http.ErrServerClosed on close
		}(ln)
	}
	return ns, nil
}

// close stops every server and service and waits for the serve
// goroutines to return.
func (ns *nodes) close() {
	for _, n := range ns.list {
		n.srv.Close()
	}
	ns.wg.Wait()
	for _, n := range ns.list {
		n.svc.Close()
	}
}

// client is the benchmark's HTTP client: at most maxConns loopback
// connections per node, matching the closed loop's client count.
type client struct {
	httpc *http.Client
	spans *spanLog
}

const maxConns = 2

func newClient(spans *spanLog) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		DisableCompression:  true,
	}
	return &client{httpc: &http.Client{Transport: tr}, spans: spans}
}

func (c *client) close() { c.httpc.CloseIdleConnections() }

// reply is one answered request.
type reply struct {
	status int
	cache  string // X-Mapserve-Cache
	body   []byte
	end    time.Time // when the body was read
}

// post sends one request. traceID, when the run is traced, rides a W3C
// traceparent so the service joins it and forwards it on peer legs,
// where the middleware picks it up again.
func (c *client) post(ctx context.Context, url string, body []byte, traceID uint64) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	traced := c.spans != nil && c.spans.on.Load()
	if traced {
		req.Header.Set("Traceparent", traceparent(traceID))
	}
	start := time.Now()
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	if traced {
		c.spans.add(span{trace: traceID, name: "client", node: -1, start: start, end: end})
	}
	return &reply{status: resp.StatusCode, cache: resp.Header.Get("X-Mapserve-Cache"), body: b, end: end}, nil
}

func traceparent(id uint64) string {
	return fmt.Sprintf("00-%032x-%016x-01", id, id|1<<63)
}

// traceIDFrom parses the low 64 bits of a traceparent's trace id.
func traceIDFrom(h string) uint64 {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[1]) != 32 {
		return 0
	}
	id, _ := strconv.ParseUint(parts[1][16:], 16, 64)
	return id
}

// scrape reads a node's /metrics into sample → value, summing the
// series of one name across label sets under the bare name as well.
func scrape(ctx context.Context, httpc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 { // exemplar
			line = line[:i]
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = v
		if base, _, labeled := strings.Cut(name, "{"); labeled {
			out[base] += v
		}
	}
	return out, sc.Err()
}

// scrapeAll sums /metrics over every node.
func (ns *nodes) scrapeAll(ctx context.Context, httpc *http.Client) (map[string]float64, error) {
	total := map[string]float64{}
	for _, n := range ns.list {
		m, err := scrape(ctx, httpc, n.url)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", n.url, err)
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}
