package service

// The one workload path. /v1/map (Problem 6.2's joint (S, Π) search)
// and /v1/pareto (its certified four-axis front) differ only in how
// they search, revalidate and encode a result, so each is a workload
// and every other step — the canonical cache, the singleflight flight,
// the forward to the key's ring owner, the fill-back after a failed
// forward, and the owner's side of both peer routes — exists once,
// below.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/schedule"
	"lodim/internal/trace"
)

// workload is one kind of cached, deduplicated, cluster-sharded search.
// Results travel as any: each kind knows its own concrete type.
type workload interface {
	// problem is the identity every kind shares.
	problem() *workProblem
	// search runs the engine in canonical coordinates and returns the
	// result with the SearchStats to observe. What search returns is fit
	// to cache: a front comes back certified.
	search(ctx context.Context, s *Service) (any, *schedule.SearchStats, error)
	// fromWire decodes and revalidates a peer-supplied result.
	fromWire(ctx context.Context, raw json.RawMessage) (any, error)
	// toWire flattens a result for the peer protocol.
	toWire(res any) any
	// size estimates a cached result's resident bytes.
	size(res any) int64
}

// workProblem is a validated, canonicalized workload problem: the kind
// tag, the canonical algorithm and target dimensionality, the composite
// cache/shard key, and the knobs that shape the result (each kind uses
// its own subset; the rest stay zero). timeoutMS is the caller's
// budget, forwarded to a ring owner.
type workProblem struct {
	kind       string // cluster.Kind*
	canon      *Canonical
	dims       int
	key        string
	maxEntry   int64
	wireWeight int64
	maxCost    int64
	timeSlack  int64
	timeoutMS  int64
}

func (p *workProblem) problem() *workProblem { return p }

// wire serializes the problem for the peer protocol. Bounds and
// dependencies are the canonical-coordinate instance, so every node
// re-derives the identical composite key.
func (p *workProblem) wire() cluster.Problem {
	algo := p.canon.Algo
	deps := make([][]int64, algo.NumDeps())
	for c := range deps {
		deps[c] = algo.D.Col(c)
	}
	return cluster.Problem{
		Kind:         p.kind,
		Key:          p.key,
		Bounds:       algo.Set.Upper,
		Dependencies: deps,
		Dims:         p.dims,
		MaxEntry:     p.maxEntry,
		WireWeight:   p.wireWeight,
		MaxCost:      p.maxCost,
		TimeSlack:    p.timeSlack,
	}
}

// workloadFromWire rebuilds and verifies a peer-supplied problem: full
// request validation of its kind, re-canonicalization, and a recomputed
// composite key that must match the wire key — so a confused or
// malicious peer cannot make this node cache under a key it would never
// derive itself. A knob that does not belong to the kind is refused
// rather than ignored.
func workloadFromWire(p *cluster.Problem, timeoutMS int64) (workload, error) {
	if p.Key == "" {
		return nil, badRequest("service: peer problem carries no key")
	}
	var w workload
	switch p.Kind {
	case "", cluster.KindMap:
		if p.TimeSlack != 0 {
			return nil, badRequest("service: peer map problem carries time_slack")
		}
		req := &MapRequest{Bounds: p.Bounds, Dependencies: p.Dependencies, Dims: p.Dims,
			MaxEntry: p.MaxEntry, WireWeight: p.WireWeight, MaxCost: p.MaxCost, TimeoutMS: timeoutMS}
		algo, dims, err := validateMapRequest(req)
		if err != nil {
			return nil, err
		}
		w = newMapWork(Canonicalize(algo), dims, req)
	case cluster.KindPareto:
		if p.WireWeight != 0 {
			return nil, badRequest("service: peer pareto problem carries wire_weight")
		}
		req := &ParetoRequest{Bounds: p.Bounds, Dependencies: p.Dependencies, Dims: p.Dims,
			MaxEntry: p.MaxEntry, MaxCost: p.MaxCost, TimeSlack: p.TimeSlack, TimeoutMS: timeoutMS}
		algo, dims, _, err := validateParetoRequest(req)
		if err != nil {
			return nil, err
		}
		w = newParetoWork(Canonicalize(algo), dims, req)
	default:
		return nil, badRequest("service: unknown peer problem kind %q", p.Kind)
	}
	if key := w.problem().key; key != p.Key {
		return nil, badRequest("service: peer problem key %q does not match recomputed key %q", p.Key, key)
	}
	return w, nil
}

// encodeWire marshals a result's wire form for a peer message.
func encodeWire(w workload, res any) (json.RawMessage, error) {
	raw, err := json.Marshal(w.toWire(res))
	if err != nil {
		return nil, fmt.Errorf("service: encode peer result: %w", err)
	}
	return raw, nil
}

// flightOutcome is what a flight resolves to: the canonical result,
// plus how it was produced — from the local cache, from the key's ring
// owner (viaPeer, with the owner's own disposition), or by searching
// here.
type flightOutcome struct {
	res             any
	fromCache       bool
	viaPeer         bool
	peerDisposition string // cluster.Disposition* when viaPeer
}

// resolve answers a workload for an origin request: canonical cache
// first, then a singleflight-deduplicated flight that either forwards
// to the key's ring owner (clustered, non-owner) or runs the
// admission-controlled search. The status tells the caller how the
// result was produced; on error it is the caller's flight role.
func (s *Service) resolve(ctx context.Context, w workload) (any, CacheStatus, error) {
	if v, ok := s.cache.Get(w.problem().key); ok {
		s.met.cacheHits.Add(1)
		return v, CacheHit, nil
	}
	out, leader, err := s.fly(ctx, w, true)
	if err != nil {
		status := CacheShared
		if leader {
			status = CacheMiss
			s.met.cacheMisses.Add(1)
		}
		return nil, status, err
	}
	status := CacheShared
	switch {
	case leader && out.fromCache:
		// The flight landed on an already-cached result (another
		// flight completed between our cache lookup and leadership) —
		// report it as the hit it is.
		status = CacheHit
		s.met.cacheHits.Add(1)
	case leader && out.viaPeer:
		// The ring owner answered; report its disposition so clients
		// (and the load driver) can tell a cluster-wide hit from a
		// search. Local hit/miss counters stay untouched — they measure
		// this node's cache; the peer_forward_* counters measure this.
		status = CacheStatus("peer_" + out.peerDisposition)
	case leader:
		status = CacheMiss
		s.met.cacheMisses.Add(1)
	}
	return out.res, status, nil
}

// fly joins or opens the flight for the workload's key. The flight
// context — not the request context — drives the work: it stays alive
// as long as any waiter still wants the result. allowForward is false
// for flights opened by the peer-lookup handler: an owner answers
// locally even when its membership view disagrees, so a forward chain
// is at most origin → owner and can never loop.
func (s *Service) fly(ctx context.Context, w workload, allowForward bool) (*flightOutcome, bool, error) {
	fctx, fspan := trace.Start(ctx, "flight")
	flightStart := time.Now()
	v, err, leader, mark := s.flights.DoMarked(fctx, w.problem().key, func(fc context.Context) (any, error) {
		return s.runFlight(fc, w, allowForward)
	})
	if !leader {
		s.recordFollowerWait(ctx, mark, flightStart)
	}
	if fspan != nil {
		role := "follower"
		if leader {
			role = "leader"
		}
		fspan.SetStr("role", role)
		if err != nil {
			fspan.SetStr("error", err.Error())
		}
		fspan.End()
	}
	if err != nil {
		return nil, leader, err
	}
	return v.(*flightOutcome), leader, nil
}

// runFlight is the body of a flight: re-check the cache, forward to the
// key's ring owner when another node owns it (allowForward), otherwise
// acquire a pool slot and search in canonical coordinates, caching the
// result. ctx is the flight context — cancelled only when every waiter
// on this flight has detached.
func (s *Service) runFlight(ctx context.Context, w workload, allowForward bool) (*flightOutcome, error) {
	key := w.problem().key
	// An earlier flight may have landed between the caller's cache
	// lookup and taking flight leadership — don't search (or forward)
	// twice. Checked before admission: a hit needs no pool slot.
	if v, ok := s.cache.Get(key); ok {
		return &flightOutcome{res: v, fromCache: true}, nil
	}
	fellBack := false
	if allowForward {
		out, err, verdict := s.forward(ctx, w)
		switch verdict {
		case peerDone:
			return out, err
		case peerFailed:
			// Owner unreachable or answered garbage: degrade to a local
			// search so one dead node never takes its keys down, then
			// push the result to the owner for cluster convergence.
			fellBack = true
		}
	}
	// ctx descends (via context.WithoutCancel) from the flight leader's
	// request context, so its stage timer — when the request came over
	// HTTP — is visible here even though the flight may outlive the
	// leader's deadline. The timer's atomics make the late writes safe.
	queueStart := time.Now()
	release, err := s.acquire(ctx)
	recordStage(ctx, stageQueue, queueStart)
	if err != nil {
		return nil, err
	}
	defer release()
	if v, ok := s.cache.Get(key); ok {
		return &flightOutcome{res: v, fromCache: true}, nil
	}
	s.met.searches.Add(1)
	// Stamp the flight mark so followers can split their wait into
	// queue-versus-search at the moment the search truly began.
	if fm := markFrom(ctx); fm != nil {
		fm.searchStartNs.CompareAndSwap(0, time.Now().UnixNano())
	}
	start := time.Now()
	res, stats, err := w.search(ctx, s)
	s.met.observeSearch(time.Since(start), trace.FromContext(ctx).TraceID())
	recordStage(ctx, stageSearch, start)
	if err != nil {
		return nil, err
	}
	s.met.observeSearchStats(stats)
	s.cache.Add(key, res, w.size(res))
	if fellBack {
		s.fillOwnerAsync(w, res)
	}
	return &flightOutcome{res: res}, nil
}

// peerVerdict is forward's three-way outcome.
type peerVerdict int

const (
	peerSkip   peerVerdict = iota // not clustered, or this node owns the key
	peerDone                      // the owner answered definitively (result or terminal error)
	peerFailed                    // forwarding failed — fall back to a local search
)

// forward sends a missed key to its ring owner. It runs inside the
// flight body, so concurrent local requests for the same problem share
// one forward exactly as they would share one search.
func (s *Service) forward(ctx context.Context, w workload) (*flightOutcome, error, peerVerdict) {
	clu := s.clu
	if clu == nil {
		return nil, nil, peerSkip
	}
	p := w.problem()
	owner := clu.ring.Owner(p.key)
	if owner.ID == clu.self.ID {
		return nil, nil, peerSkip
	}

	pctx, span := trace.Start(ctx, "peer-lookup")
	var tp string
	if span != nil {
		span.SetStr("peer", owner.ID)
		tp = trace.Traceparent(span.TraceID(), span.IDHex())
		defer span.End()
	}
	defer recordStage(ctx, stageForward, time.Now())
	// The flight context carries no deadline of its own (it lives while
	// any waiter does), so bound the exchange by the request's effective
	// budget: the owner clamps the forwarded TimeoutMS the same way and
	// the grace keeps a just-in-time answer deliverable.
	cctx, cancel := context.WithTimeout(pctx, s.EffectiveTimeout(p.timeoutMS)+peerLookupGrace)
	defer cancel()
	lreq := &cluster.LookupRequest{Problem: p.wire(), TimeoutMS: p.timeoutMS}
	resp, err := clu.client.Lookup(cctx, owner, lreq, tp)
	if err != nil {
		var perr *cluster.PeerError
		if errors.As(err, &perr) && perr.Status == http.StatusUnprocessableEntity {
			// The owner ran the search and proved infeasibility within the
			// explored bound — a definite answer, not a failure to degrade
			// around. Counted as a miss: the owner did search for us.
			s.met.peerForwardMiss.Add(1)
			if span != nil {
				span.SetStr("disposition", "infeasible")
			}
			return nil, fmt.Errorf("%w (decided by peer %s)", schedule.ErrNoSchedule, owner.ID), peerDone
		}
		s.met.peerForwardErrors.Add(1)
		if span != nil {
			span.SetStr("error", err.Error())
		}
		if ctx.Err() != nil {
			// The flight itself is dead (every waiter detached): a local
			// fallback search would be cancelled work.
			return nil, ctx.Err(), peerDone
		}
		return nil, nil, peerFailed
	}
	res, err := w.fromWire(cctx, resp.Result)
	if err != nil {
		// The owner answered 200 with a body that fails revalidation —
		// version skew or a corrupt peer. Treated like unreachability:
		// search locally rather than serve a bad result.
		s.met.peerForwardErrors.Add(1)
		if span != nil {
			span.SetStr("error", err.Error())
		}
		return nil, nil, peerFailed
	}
	switch resp.Disposition {
	case cluster.DispositionHit:
		s.met.peerForwardHit.Add(1)
	case cluster.DispositionShared:
		s.met.peerForwardShared.Add(1)
	default:
		s.met.peerForwardMiss.Add(1)
	}
	if span != nil {
		span.SetStr("disposition", resp.Disposition)
	}
	// Forward-then-fill: repeat traffic for this key on this node is
	// local from here on.
	s.cache.Add(p.key, res, w.size(res))
	return &flightOutcome{res: res, viaPeer: true, peerDisposition: resp.Disposition}, nil, peerDone
}

// fillOwnerAsync pushes a locally-searched result to the key's ring
// owner after a failed forward, converging the cluster back onto "the
// owner holds its keys" once the owner returns. Best-effort: a failure
// only counts a metric. The goroutine registers with begin() so Close
// still drains it.
func (s *Service) fillOwnerAsync(w workload, res any) {
	clu := s.clu
	if clu == nil {
		return
	}
	p := w.problem()
	owner := clu.ring.Owner(p.key)
	if owner.ID == clu.self.ID {
		return
	}
	raw, err := encodeWire(w, res)
	if err != nil {
		s.met.peerFillSendErrs.Add(1)
		return
	}
	done, err := s.begin()
	if err != nil {
		return
	}
	freq := &cluster.FillRequest{Problem: p.wire(), Result: raw}
	go func() {
		defer done()
		ctx, cancel := context.WithTimeout(context.Background(), clu.fillTimeout)
		defer cancel()
		if err := clu.client.Fill(ctx, owner, freq); err != nil {
			s.met.peerFillSendErrs.Add(1)
			return
		}
		s.met.peerFillsSent.Add(1)
	}()
}

// PeerLookup answers one forwarded problem of any kind as its ring
// owner: cache first, then the same flight group the origin endpoints
// use — so an origin request and a forwarded one for the same problem
// share a single search. The flight is opened with forwarding disabled:
// an owner resolves locally even when its membership view disagrees
// with the caller's, which bounds every forward chain at origin → owner.
func (s *Service) PeerLookup(ctx context.Context, lreq *cluster.LookupRequest) (*cluster.LookupResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()

	w, err := workloadFromWire(&lreq.Problem, lreq.TimeoutMS)
	if err != nil {
		return nil, err
	}
	var res any
	disposition := cluster.DispositionHit
	if v, ok := s.cache.Get(w.problem().key); ok {
		s.met.peerServedHit.Add(1)
		res = v
	} else {
		out, leader, err := s.fly(ctx, w, false)
		if err != nil {
			return nil, err
		}
		res = out.res
		switch {
		case !leader:
			disposition = cluster.DispositionShared
			s.met.peerServedShared.Add(1)
		case out.fromCache:
			s.met.peerServedHit.Add(1)
		default:
			disposition = cluster.DispositionMiss
			s.met.peerServedMiss.Add(1)
		}
	}
	raw, err := encodeWire(w, res)
	if err != nil {
		return nil, err
	}
	return &cluster.LookupResponse{Disposition: disposition, Result: raw}, nil
}

// PeerFill accepts a best-effort cache push from a peer that searched
// one of this node's keys while it was unreachable. The problem and the
// payload are revalidated end to end before anything enters the cache.
func (s *Service) PeerFill(ctx context.Context, freq *cluster.FillRequest) (*cluster.FillResponse, error) {
	done, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer done()

	w, err := workloadFromWire(&freq.Problem, 0)
	if err != nil {
		s.met.peerFillsRejected.Add(1)
		return nil, err
	}
	res, err := w.fromWire(ctx, freq.Result)
	if err != nil {
		s.met.peerFillsRejected.Add(1)
		return nil, &BadRequestError{Err: err}
	}
	s.cache.Add(w.problem().key, res, w.size(res))
	s.met.peerFillsRecv.Add(1)
	return &cluster.FillResponse{Stored: true}, nil
}
