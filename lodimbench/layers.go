package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/schedule"
	"lodim/internal/service"
	"lodim/internal/verify"
)

// maxReplay bounds how many traced requests are replayed.
const maxReplay = 20000

// conflictMethods are the Result.Method values conflict.Decide returns.
var conflictMethods = []string{
	"full-rank-injective", "theorem-3.1", "theorem-4.5", "theorem-4.7",
	"exact-after-4.7", "theorem-4.8", "exact-after-4.8", "exact-enumeration",
}

// layerReport is the traced run's per-layer result: the per_layer
// metrics plus the per-request self-time ladder.
type layerReport struct {
	metrics map[string]float64
	self    map[string]float64 // µs per request by layer
}

// meanAcc accumulates a mean.
type meanAcc struct {
	sum float64
	n   int
}

func (m *meanAcc) add(x float64) { m.sum += x; m.n++ }
func (m *meanAcc) get() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// perCall times fn, repeating it until at least 50µs have passed so
// sub-microsecond calls read above the clock's resolution, and returns
// the mean duration of one call.
func perCall(fn func()) time.Duration {
	for reps := 1; ; reps *= 4 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if el := time.Since(start); el >= 50*time.Microsecond || reps >= 1<<16 {
			return el / time.Duration(reps)
		}
	}
}

// replay derives the per-layer metrics of a traced phase: the spans
// the benchmark recorded around each client request and each node's
// handler, the /metrics deltas, and a replay of every traced request
// through the layers' public functions — Service.Map/Pareto/
// VerifyMapping on an in-process service, the schedule engines on the
// canonical problem, and conflict.Decide, intmat and verify on each
// answer.
func replay(ctx context.Context, traced *phaseResult, spans []span) (*layerReport, error) {
	m := map[string]float64{}
	rec := traced.rec
	calls := rec.calls
	if len(calls) > maxReplay {
		calls = calls[:maxReplay]
	}
	requests := float64(rec.attempts)
	if requests == 0 {
		return nil, fmt.Errorf("traced phase sent no requests")
	}

	// Spans: client round trips, entry handlers, peer legs.
	var rtt, peerLookup, peerFill meanAcc
	handler := map[string]*meanAcc{"map": {}, "pareto": {}, "verify": {}}
	var forwards, fills float64
	for _, s := range spans {
		d := micros(s.dur())
		switch {
		case s.name == "client":
			rtt.add(d)
		case strings.HasPrefix(s.name, "/v1/"):
			if acc, ok := handler[strings.TrimPrefix(s.name, "/v1/")]; ok {
				acc.add(d)
			}
		case strings.HasSuffix(s.name, "/lookup"):
			peerLookup.add(d)
			forwards++
		case strings.HasSuffix(s.name, "/fill"):
			peerFill.add(d)
			fills++
		}
	}
	m["client.rtt_us"] = rtt.get()
	for k, acc := range handler {
		m["http.handler_us."+k] = acc.get()
	}
	m["http.resp_bytes"] = float64(rec.bytes) / requests
	m["cluster.peer_lookup_us"] = peerLookup.get()
	m["cluster.peer_fill_us"] = peerFill.get()
	m["cluster.forwards"] = forwards / requests
	m["cluster.fills"] = fills / requests
	var peerHit, peerAll float64
	for k, v := range rec.cache {
		if _, disp, _ := strings.Cut(k, ":"); strings.HasPrefix(disp, "peer_") {
			peerAll += float64(v)
			if disp == "peer_hit" {
				peerHit += float64(v)
			}
		}
	}
	m["cluster.peer_hit_ratio"] = ratio(peerHit, peerAll)

	// /metrics deltas.
	sc := traced.scraped
	m["service.cache_hit_ratio"] = ratio(sc["mapserve_cache_hits_total"], sc["mapserve_cache_hits_total"]+sc["mapserve_cache_misses_total"])
	m["service.searches"] = sc["mapserve_searches_total"] / requests
	m["service.singleflight_shared"] = sc["mapserve_singleflight_deduped_total"] / requests

	// Service core, replayed in-process in the cache state each traced
	// request met: a request that missed on the server misses here.
	svc := service.New(serviceConfig())
	defer func() { svc.Close() }()
	seen := map[string]bool{}
	var mapCore, mapHit, canon, paretoCore, verifyCore meanAcc
	for _, c := range calls {
		key := c.kind + "|" + c.q.prob.key
		hit := strings.Contains(c.cache, "hit")
		if seen[key] && !hit {
			svc.Close()
			svc = service.New(serviceConfig())
			seen = map[string]bool{}
		}
		warm := hit && !seen[key] // the server had it cached: so must the replay
		seen[key] = true
		switch c.kind {
		case "map":
			req := c.q.mapRequest()
			if warm {
				svc.Map(ctx, req)
			}
			d, err := timed(func() error { _, _, err := svc.Map(ctx, req); return err })
			if err != nil {
				return nil, fmt.Errorf("replay Service.Map: %w", err)
			}
			mapCore.add(micros(d))
			d, _ = timed(func() error { _, _, err := svc.Map(ctx, req); return err })
			mapHit.add(micros(d))
			algo, err := c.q.inst.Algorithm()
			if err != nil {
				return nil, err
			}
			canon.add(micros(perCall(func() { service.Canonicalize(algo) })))
		case "pareto":
			req := c.q.paretoRequest()
			if warm {
				svc.Pareto(ctx, req)
			}
			d, err := timed(func() error { _, _, err := svc.Pareto(ctx, req); return err })
			if err != nil {
				return nil, fmt.Errorf("replay Service.Pareto: %w", err)
			}
			paretoCore.add(micros(d))
		case "verify":
			req := &service.VerifyRequest{Bounds: c.q.inst.Bounds, Dependencies: c.q.inst.Dependencies, S: c.s, Pi: c.pi}
			if warm {
				svc.VerifyMapping(ctx, req)
			}
			d, err := timed(func() error { _, _, err := svc.VerifyMapping(ctx, req); return err })
			if err != nil {
				return nil, fmt.Errorf("replay Service.VerifyMapping: %w", err)
			}
			verifyCore.add(micros(d))
		}
	}
	m["service.map_hit_us"] = mapHit.get()
	m["service.canonicalize_us"] = canon.get()
	m["service.pareto_us"] = paretoCore.get()
	m["service.verify_us"] = verifyCore.get()
	m["http.self_us.map"] = m["http.handler_us.map"] - mapCore.get()

	// Engines on the canonical problem, once per distinct problem.
	workers := runtime.GOMAXPROCS(0)
	var joint, pareto, decide, hnf, det, certify, paretoCert meanAcc
	var schedCands, spaceCands, levels, pruned, hnfInc, hnfAll float64
	methods := map[string]float64{}
	var decisions float64
	done := map[string]bool{}
	for _, c := range calls {
		if c.kind == "verify" || done[c.kind+"|"+c.q.prob.key] {
			continue
		}
		done[c.kind+"|"+c.q.prob.key] = true
		inst := c.q.prob.inst
		algo, err := inst.Algorithm()
		if err != nil {
			return nil, err
		}
		can := service.Canonicalize(algo)
		dims := max(inst.Dims, 1)
		space := schedule.SpaceOptions{MaxEntry: inst.MaxEntry, Schedule: schedule.Options{MaxCost: inst.MaxCost, Workers: workers}}
		if c.kind == "pareto" {
			var res *schedule.ParetoResult
			d, err := timed(func() (err error) {
				res, err = schedule.FindParetoContext(ctx, can.Algo, dims, &schedule.ParetoOptions{Space: space, TimeSlack: 1})
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("replay FindParetoContext %s: %w", inst.ID, err)
			}
			pareto.add(float64(d) / 1e6)
			members := make([]verify.ParetoInput, len(res.Front))
			for i, fm := range res.Front {
				members[i] = verify.ParetoInput{S: fm.Mapping.S, Pi: fm.Mapping.Pi, Vector: [verify.ParetoAxes]int64(fm.Vector)}
			}
			d, err = timed(func() error {
				cert, err := verify.CertifyPareto(ctx, can.Algo, members, res.TimeBound, &verify.Options{SkipOptimality: true})
				if err == nil {
					err = cert.Err()
				}
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("replay CertifyPareto %s: %w", inst.ID, err)
			}
			paretoCert.add(float64(d) / 1e6)
			continue
		}
		var res *schedule.JointResult
		d, err := timed(func() (err error) {
			res, err = schedule.FindJointMappingContext(ctx, can.Algo, dims, &space)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("replay FindJointMappingContext %s: %w", inst.ID, err)
		}
		joint.add(float64(d) / 1e6)
		if st := res.Stats; st != nil {
			schedCands += float64(st.ScheduleCandidates)
			spaceCands += float64(st.SpaceCandidates)
			levels += float64(st.CostLevels)
			pruned += float64(st.Pruned())
			hnfInc += float64(st.HNFIncremental)
			hnfAll += float64(st.HNFIncremental + st.HNFFromScratch)
		}
		t := res.Mapping.T
		var dec conflict.Result
		decide.add(micros(perCall(func() { dec, _ = conflict.Decide(t, can.Algo.Set) })))
		methods[dec.Method]++
		decisions++
		hnf.add(float64(perCall(func() { intmat.HermiteNormalForm(t) })))
		gram := t.Mul(t.Transpose())
		det.add(float64(perCall(func() { gram.Det() })))
		d, err = timed(func() error {
			cert, err := verify.CertifyContext(ctx, can.Algo, res.Mapping.S, res.Mapping.Pi, &verify.Options{SkipOptimality: true})
			if err == nil {
				err = cert.Err()
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("replay Certify %s: %w", inst.ID, err)
		}
		certify.add(micros(d))
	}
	m["schedule.joint_ms"] = joint.get()
	m["schedule.pareto_ms"] = pareto.get()
	m["schedule.schedule_candidates"] = schedCands / max(float64(joint.n), 1)
	m["schedule.space_candidates"] = spaceCands / max(float64(joint.n), 1)
	m["schedule.cost_levels"] = levels / max(float64(joint.n), 1)
	m["schedule.candidates_per_ms"] = ratio(schedCands, joint.sum)
	m["schedule.pruned_ratio"] = ratio(pruned, spaceCands)
	m["schedule.hnf_incremental_ratio"] = ratio(hnfInc, hnfAll)
	m["conflict.decide_us"] = decide.get()
	for _, meth := range conflictMethods {
		m["conflict.method."+meth] = ratio(methods[meth], decisions)
	}
	m["verify.certify_us"] = certify.get()
	m["verify.pareto_certify_ms"] = paretoCert.get()
	m["intmat.hnf_ns"] = hnf.get()
	m["intmat.det_ns"] = det.get()

	// Self-time ladder, µs per request: each layer's inclusive time
	// minus the part its inner layers account for. The engines ran once
	// per distinct problem here; on the server they ran once per
	// search, so their share is the server's searches per request times
	// the mean engine time per search. In a cluster the entry handler
	// also waits on peer legs, so "http" includes forwarding there.
	entry := handler["map"].sum + handler["pareto"].sum + handler["verify"].sum
	core := (mapCore.sum + paretoCore.sum + verifyCore.sum) / float64(max(len(calls), 1))
	engines := 0.0
	if joint.n+pareto.n > 0 {
		perSearch := (joint.sum + pareto.sum + paretoCert.sum) * 1e3 / float64(joint.n+pareto.n)
		engines = m["service.searches"] * perSearch
	}
	self := map[string]float64{
		"client":  (rtt.sum - entry) / requests,
		"http":    entry/requests - core,
		"service": core - engines,
		"engines": engines,
	}
	return &layerReport{metrics: m, self: self}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}
