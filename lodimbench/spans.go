package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark's own code: a
// client round trip (node -1) or a node's handler for one request,
// peer legs included. Spans of one client request share trace.
type span struct {
	trace      uint64
	name       string // "client" or the request path
	node       int
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps spans in memory until the traced run ends. Nothing
// is recorded while on is false, so untraced phases pay one atomic
// load per request.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// middleware times every request a node's handler serves.
func (l *spanLog) middleware(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		l.add(span{trace: traceIDFrom(r.Header.Get("Traceparent")), name: r.URL.Path, node: node, start: start, end: time.Now()})
	})
}
