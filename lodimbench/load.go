package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// segment is a stretch of one phase served by one set of nodes: the
// whole phase for map-hit, one pass over fresh (cold) nodes for the
// other workloads.
type segment struct {
	ns    *nodes
	ops   int    // ops in the segment; 0 = unbounded
	close func() // releases the segment's own nodes; nil when shared
	// run performs op i, timing each request from due (the send time
	// in a closed loop, the scheduled arrival in an open one).
	run func(ctx context.Context, c *client, i int, due time.Time, rec *recorder)
}

// segmenter builds the segments of one phase; pass counts from 0.
type segmenter func(ctx context.Context, phase string, pass int) (*segment, error)

// recorder collects request outcomes of one phase.
type recorder struct {
	spans *spanLog

	mu       sync.Mutex
	lats     []float64 // ms, successful requests
	attempts int
	failures int
	errs     []error // first few failures, for the report
	cache    map[string]int
	bytes    int64
	late     []float64 // ms the open-loop generator sent after due
	calls    []call    // traced requests, for the per-layer replay
}

// call is one traced request, kept for replay through the layers'
// public functions.
type call struct {
	kind  string // "map", "pareto", "verify"
	q     restated
	cache string
	s     [][]int64 // verify: the mapping sent
	pi    []int64
}

func newRecorder(spans *spanLog) *recorder {
	return &recorder{spans: spans, cache: map[string]int{}}
}

// observe records one request: its latency from due, its cache
// disposition and size, and err when it failed or answered wrongly.
func (r *recorder) observe(kind string, due time.Time, rep *reply, err error) {
	var lat time.Duration
	if rep != nil {
		lat = rep.end.Sub(due)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts++
	if rep != nil {
		r.cache[kind+":"+rep.cache]++
		r.bytes += int64(len(rep.body))
	}
	if err != nil {
		r.failures++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Errorf("%s: %w", kind, err))
		}
		return
	}
	r.lats = append(r.lats, float64(lat)/1e6)
}

func (r *recorder) keep(c call) {
	if r.spans == nil || !r.spans.on.Load() {
		return
	}
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lats) + r.failures
}

// phaseResult is what a loop measured.
type phaseResult struct {
	rec      *recorder
	measured time.Duration // wall time inside segments
	scraped  map[string]float64
}

// loop runs one phase for at least dur and at least minN requests
// (capped at four times dur), with maxConns client goroutines. rate 0
// is a closed loop; rate > 0 an open loop with Poisson arrivals at
// rate ops per second, each op timed from its arrival unless its
// sender was idle then (see below).
func loop(ctx context.Context, next segmenter, phase string, dur time.Duration, minN int, rate float64, spans *spanLog) (*phaseResult, error) {
	res := &phaseResult{rec: newRecorder(spans), scraped: map[string]float64{}}
	hardStop := 4 * dur
	done := func() bool {
		return (res.measured >= dur && res.rec.count() >= minN) || res.measured >= hardStop
	}
	for pass := 0; !done(); pass++ {
		seg, err := next(ctx, phase, pass)
		if err != nil {
			return nil, err
		}
		before, err := seg.ns.scrapeAll(ctx, metricsClient)
		if err != nil {
			return nil, err
		}
		c := newClient(spans)
		start := time.Now()
		var arrivals []time.Duration
		if rate > 0 {
			arrivals = poisson(rate, hardStop-res.measured, seg.ops, rng(arrivalSeed, phase+"/arrivals", uint64(pass)))
		}
		var nextOp atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < maxConns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					if res.measured+time.Since(start) >= dur && res.rec.count() >= minN ||
						res.measured+time.Since(start) >= hardStop {
						return
					}
					i := int(nextOp.Add(1) - 1)
					if seg.ops > 0 && i >= seg.ops {
						return
					}
					due := time.Now()
					if rate > 0 {
						if i >= len(arrivals) {
							return
						}
						due = start.Add(arrivals[i])
						idle := time.Now().Before(due)
						sleepUntil(due)
						late := float64(time.Since(due)) / 1e6
						res.rec.mu.Lock()
						res.rec.late = append(res.rec.late, late)
						res.rec.mu.Unlock()
						if idle {
							// The sender waited on nothing but its own
							// sleep; how long it overslept is the
							// generator's error (reported as lateness),
							// not the system's, so time from the send.
							// A sender still busy at due time sends
							// late, and that wait is timed from due.
							due = time.Now()
						}
					}
					seg.run(ctx, c, i, due, res.rec)
				}
			}()
		}
		wg.Wait()
		res.measured += time.Since(start)
		after, err := seg.ns.scrapeAll(ctx, metricsClient)
		c.close()
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			res.scraped[k] += v - before[k]
		}
		if seg.close != nil {
			seg.close()
		}
	}
	return res, ctx.Err()
}

// arrivalSeed fixes the open loop's trace: its Poisson sample path and,
// through orderSeed, which problem arrives at each point of it. Every
// seed replays the same bursts with the same problems in them and
// varies only their axis permutations, so every request body still
// differs. With the seed choosing the order too, whether a burst met
// one of map-search's few 40–70 ms bitlevel searches, and which of
// cluster-session's matmul fronts fell in the run, moved the open p99
// by a fifth to a half from seed to seed (five seeds at 75 req/s:
// 39–52 ms; with the order fixed, 47–51 ms).
const arrivalSeed = 0

// orderSeed is the seed of a phase's problem order: the run's seed,
// except in the open loop, which replays the fixed trace.
func orderSeed(seed uint64, phase string) uint64 {
	if phase == "open" {
		return arrivalSeed
	}
	return seed
}

// metricsClient scrapes /metrics outside the measured connections.
var metricsClient = newClient(nil).httpc

// poisson returns arrival offsets of a Poisson process at rate per
// second spanning span, at most limit of them (0 = no limit).
func poisson(rate float64, span time.Duration, limit int, r *rand.Rand) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		if time.Duration(t*1e9) > span || (limit > 0 && len(out) == limit) {
			return out
		}
		out = append(out, time.Duration(t*1e9))
	}
}
