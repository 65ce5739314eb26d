package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"lodim/internal/service"
)

// workload is one traffic mix. setup does everything a run needs
// before timing starts (nodes, warm-up, cache fill) and returns the
// phase segmenter and a release function.
type workload struct {
	name string
	why  string
	// rate is the open loop's offered load in requests per second:
	// about 12–20% of the closed loop's throughput on the host that
	// defined the benchmark, where queueing shows but does not amplify
	// the host's own speed drift into the tail (map-search's p99 at
	// 150 req/s now and then doubled when a Poisson burst met a
	// bitlevel search). BENCHMARK.json records it in the workload's
	// why.
	rate float64
	// reqsPerOp is how many requests one op sends.
	reqsPerOp int
	setup     func(ctx context.Context, b *bench) (segmenter, func(), error)
}

var workloads = []*workload{
	{
		name:      "map-hit",
		why:       "1 node, /v1/map hits on 256 hot problems under fresh axis permutations: HTTP handler and service hit path, never a search; open loop 2500 req/s",
		rate:      2500,
		reqsPerOp: 1,
		setup:     setupMapHit,
	},
	{
		name:      "map-search",
		why:       "1 node, every request a distinct cold problem of 1128: one joint search each in schedule, conflict and intmat, no cache hits; open loop 75 req/s",
		rate:      75,
		reqsPerOp: 1,
		setup:     setupMapSearch,
	},
	{
		name:      "cluster-session",
		why:       "2-node cluster, per problem map, pareto, verify, permuted map: Pareto engine, certification, peer forward and fill, local hits; open loop 50 req/s",
		rate:      50,
		reqsPerOp: 4,
		setup:     setupClusterSession,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// hitRequest is map-hit's request i of a phase: hot problem order[i]
// (cycling) under a fresh axis permutation.
func hitRequest(order []*problem, seed uint64, phase string, i int) restated {
	return restate(order[i%len(order)], rng(seed, "map-hit/"+phase, uint64(i)))
}

// searchRequest is map-search's request i of a phase's pass.
func searchRequest(order []*problem, seed uint64, phase string, pass, i int) restated {
	return restate(order[i], rng(seed, fmt.Sprintf("map-search/%s/%d", phase, pass), uint64(i)))
}

// sessionRequests are cluster-session's session i of a phase's pass:
// the first map's restatement (also sent as pareto and verify) and the
// second map's fresh permutation.
func sessionRequests(order []*problem, seed uint64, phase string, pass, i int) (restated, restated) {
	r := rng(seed, fmt.Sprintf("cluster-session/%s/%d", phase, pass), uint64(i))
	q1 := restate(order[i], r)
	return q1, restate(order[i], r)
}

// bench is the state one run shares across its phases.
type bench struct {
	seed   uint64
	spans  *spanLog
	oracle *oracle
	probs  *problemSet
	trace  atomic.Uint64
}

func (b *bench) nextTrace() uint64 { return b.trace.Add(1) }

// doMap sends one /v1/map request for q to n and checks the answer;
// want, when set, is the cache disposition the workload depends on.
func (b *bench) doMap(ctx context.Context, c *client, n *node, q restated, due time.Time, rec *recorder, want string) *mapAnswer {
	rep, err := c.post(ctx, n.url+"/v1/map", mustJSON(q.mapRequest()), b.nextTrace())
	var a *mapAnswer
	if err == nil {
		a, err = b.oracle.checkMap(q, rep)
	}
	if err == nil && want != "" && rep.cache != want {
		err = fmt.Errorf("%s: answered %q, the workload needs %q", q.prob.inst.ID, rep.cache, want)
	}
	rec.observe("map", due, rep, err)
	if rep != nil {
		rec.keep(call{kind: "map", q: q, cache: rep.cache})
	}
	if err != nil {
		return nil
	}
	return a
}

// session is one cluster-session op: map on node a, then on node b a
// pareto front, a verify of a's mapping, and the map again under a
// fresh axis permutation. Each later request is due when the previous
// one answered.
func (b *bench) session(ctx context.Context, c *client, a, bn *node, q1, q2 restated, due time.Time, rec *recorder) {
	m := b.doMap(ctx, c, a, q1, due, rec, "")
	if m == nil {
		return
	}
	due = time.Now()
	rep, err := c.post(ctx, bn.url+"/v1/pareto", mustJSON(q1.paretoRequest()), b.nextTrace())
	if err == nil {
		err = b.oracle.checkPareto(q1, rep)
	}
	rec.observe("pareto", due, rep, err)
	if rep != nil {
		rec.keep(call{kind: "pareto", q: q1, cache: rep.cache})
	}

	due = time.Now()
	vreq := &service.VerifyRequest{Bounds: q1.inst.Bounds, Dependencies: q1.inst.Dependencies, S: m.S, Pi: m.Pi}
	rep, err = c.post(ctx, bn.url+"/v1/verify", mustJSON(vreq), b.nextTrace())
	if err == nil {
		err = b.oracle.checkVerify(q1, rep)
	}
	rec.observe("verify", due, rep, err)
	if rep != nil {
		rec.keep(call{kind: "verify", q: q1, cache: rep.cache, s: m.S, pi: m.Pi})
	}

	b.doMap(ctx, c, bn, q2, time.Now(), rec, "")
}

// drive runs ops 0..n-1 of seg on maxConns goroutines, outside any
// measurement, and returns the first failure.
func drive(ctx context.Context, seg *segment, n int) error {
	rec := newRecorder(nil)
	c := newClient(nil)
	defer c.close()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				seg.run(ctx, c, i, time.Now(), rec)
			}
		}()
	}
	wg.Wait()
	if len(rec.errs) > 0 {
		return rec.errs[0]
	}
	return ctx.Err()
}

// setupMapHit starts one node and fills its cache with the hot set;
// every timed request then restates a hot problem under a fresh axis
// permutation, so each body differs and each is a hit.
func setupMapHit(ctx context.Context, b *bench) (segmenter, func(), error) {
	hot := b.probs.hotSet()
	ns, err := startNodes(1, b.spans)
	if err != nil {
		return nil, nil, err
	}
	fill := &segment{ns: ns, run: func(ctx context.Context, c *client, i int, due time.Time, rec *recorder) {
		b.doMap(ctx, c, ns.list[0], restate(hot[i], rng(warmSeed, "map-hit/fill", uint64(i))), due, rec, "miss")
	}}
	if err := drive(ctx, fill, len(hot)); err != nil {
		ns.close()
		return nil, nil, fmt.Errorf("map-hit cache fill: %w", err)
	}
	order := passOrder(hot, b.seed, "map-hit", 0)
	next := func(ctx context.Context, phase string, pass int) (*segment, error) {
		return &segment{ns: ns, run: func(ctx context.Context, c *client, i int, due time.Time, rec *recorder) {
			b.doMap(ctx, c, ns.list[0], hitRequest(order, b.seed, phase, i), due, rec, "hit")
		}}, nil
	}
	return next, ns.close, nil
}

// builder makes one segment of a phase from an explicit seed.
type builder func(ctx context.Context, seed uint64, phase string, pass int) (*segment, error)

// warmSeed fixes the warm-up inputs, so set-up does the same work
// whatever the run's seed.
const warmSeed = 0

// warmUp runs the first n ops of a throwaway warm-up segment.
func warmUp(ctx context.Context, build builder, n int) error {
	warm, err := build(ctx, warmSeed, "warmup", 0)
	if err != nil {
		return err
	}
	defer warm.close()
	return drive(ctx, warm, n)
}

// seeded binds a builder to the run's seed.
func (b *bench) seeded(build builder) segmenter {
	return func(ctx context.Context, phase string, pass int) (*segment, error) {
		return build(ctx, b.seed, phase, pass)
	}
}

// mapSearchWarmup is how many cold searches warm the process up on a
// throwaway node before timing.
const mapSearchWarmup = 128

// setupMapSearch warms the process on a throwaway node; each pass of a
// phase then runs every distinct problem once against a fresh node, so
// every request is a cold search.
func setupMapSearch(ctx context.Context, b *bench) (segmenter, func(), error) {
	probs := b.probs.all
	build := func(ctx context.Context, seed uint64, phase string, pass int) (*segment, error) {
		ns, err := startNodes(1, b.spans)
		if err != nil {
			return nil, err
		}
		order := passOrder(probs, orderSeed(seed, phase), "map-search/"+phase, pass)
		return &segment{ns: ns, ops: len(order), close: ns.close,
			run: func(ctx context.Context, c *client, i int, due time.Time, rec *recorder) {
				b.doMap(ctx, c, ns.list[0], searchRequest(order, seed, phase, pass, i), due, rec, "miss")
			}}, nil
	}
	if err := warmUp(ctx, build, mapSearchWarmup); err != nil {
		return nil, nil, fmt.Errorf("map-search warm-up: %w", err)
	}
	return b.seeded(build), func() {}, nil
}

// clusterWarmup is how many sessions warm the process up on a
// throwaway cluster before timing.
const clusterWarmup = 32

// firstNode picks a session's node A by the problem's cache key, so
// whether its legs are served by the owner or forwarded to it — a
// forwarded front is certified twice — is a property of the problem,
// the same whatever the seed's order.
func firstNode(p *problem) int {
	h := fnv.New32a()
	h.Write([]byte(p.key))
	return int(h.Sum32() % 2)
}

// setupClusterSession warms the process on a throwaway 2-node cluster;
// each pass of a phase then runs one session per distinct non-bitlevel
// problem against a fresh cluster.
func setupClusterSession(ctx context.Context, b *bench) (segmenter, func(), error) {
	probs := b.probs.filter(func(f string) bool { return f != "bitlevel" })
	build := func(ctx context.Context, seed uint64, phase string, pass int) (*segment, error) {
		ns, err := startNodes(2, b.spans)
		if err != nil {
			return nil, err
		}
		order := passOrder(probs, orderSeed(seed, phase), "cluster-session/"+phase, pass)
		return &segment{ns: ns, ops: len(order), close: ns.close,
			run: func(ctx context.Context, c *client, i int, due time.Time, rec *recorder) {
				q1, q2 := sessionRequests(order, seed, phase, pass, i)
				a := firstNode(order[i])
				b.session(ctx, c, ns.list[a], ns.list[1-a], q1, q2, due, rec)
			}}, nil
	}
	if err := warmUp(ctx, build, clusterWarmup); err != nil {
		return nil, nil, fmt.Errorf("cluster-session warm-up: %w", err)
	}
	return b.seeded(build), func() {}, nil
}
