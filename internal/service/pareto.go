package service

// The Pareto endpoint: POST /v1/pareto runs the multi-objective joint
// search (schedule.FindPareto) and returns the certified front over
// (total time, processors, buffer depth, link count).
//
// Caching follows the map endpoint's canonical discipline with one
// extra move: the composite key covers only the knobs that shape the
// front (problem identity, dims, MaxEntry, MaxCost, TimeSlack).
// Selection knobs — mode, lex order, weights — never enter the key,
// because they pick a member *from* the front without changing it; the
// Best index is recomputed per request from the cached front, so every
// selection of one problem costs a single search.
//
// Every front that enters the cache is verifier-certified first: the
// searching node runs verify.CertifyPareto (member certificates plus
// the non-domination and pinned-order invariants) on the canonical
// result, and a node receiving a front over the peer protocol runs the
// same certification before trusting it — the Pareto leg's
// cache-poisoning defense subsumes the map leg's revalidation.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/intmat"
	"lodim/internal/schedule"
	"lodim/internal/uda"
	"lodim/internal/verify"
)

// maxTimeSlack caps the requested window widening: every extra level
// re-enumerates the schedule cone once per candidate S, so an
// unbounded slack would let one request buy an unbounded search.
const maxTimeSlack = 64

// ParetoRequest asks for the Pareto front of a mapping problem. The
// algorithm and search knobs mirror MapRequest (WireWeight is absent:
// the link axis replaces the scalarized wire term); the selection
// knobs choose which front member the response marks Best.
type ParetoRequest struct {
	Algorithm    string    `json:"algorithm,omitempty"`
	Sizes        []int64   `json:"sizes,omitempty"`
	Bounds       []int64   `json:"bounds,omitempty"`
	Dependencies [][]int64 `json:"dependencies,omitempty"`
	Dims         int       `json:"dims,omitempty"`
	MaxEntry     int64     `json:"max_entry,omitempty"`
	MaxCost      int64     `json:"max_cost,omitempty"`
	// TimeSlack admits schedules up to (optimal time + TimeSlack) into
	// the front (0 = time-optimal members only; capped by maxTimeSlack).
	TimeSlack int64 `json:"time_slack,omitempty"`
	// Mode selects Best: "front" (default — the pinned-order head),
	// "lex", or "weighted".
	Mode string `json:"mode,omitempty"`
	// LexOrder is the axis priority for mode "lex": names among
	// "time", "processors", "buffers", "links"; omitted axes follow in
	// canonical order.
	LexOrder []string `json:"lex_order,omitempty"`
	// Weights are the per-axis scalarization weights for mode
	// "weighted", keyed by axis name.
	Weights   map[string]int64 `json:"weights,omitempty"`
	TimeoutMS int64            `json:"timeout_ms,omitempty"`
}

// ParetoFrontMember is one front element in the request's axis order.
type ParetoFrontMember struct {
	S          [][]int64 `json:"space_mapping"`
	Pi         []int64   `json:"schedule"`
	TotalTime  int64     `json:"total_time"`
	Processors int64     `json:"processors"`
	Buffers    int64     `json:"buffers"`
	Links      int64     `json:"links"`
}

// ParetoResponse carries the certified front in pinned deterministic
// order. Best indexes the member the request's selection mode picked.
type ParetoResponse struct {
	Algorithm    string              `json:"algorithm"`
	Dim          int                 `json:"n"`
	NumDeps      int                 `json:"m"`
	Bounds       []int64             `json:"mu"`
	Dims         int                 `json:"array_dims"`
	Front        []ParetoFrontMember `json:"front"`
	Best         int                 `json:"best"`
	TimeBound    int64               `json:"time_bound"`
	Candidates   int                 `json:"candidates"`
	Pruned       int                 `json:"pruned"`
	Certified    bool                `json:"certified"`
	CanonicalKey string              `json:"canonical_key"`
}

// paretoSelection parses and validates the request's selection knobs.
// Knobs belonging to a mode that is not selected are rejected rather
// than ignored — a silently dropped knob reads like a different front.
func paretoSelection(req *ParetoRequest) (*schedule.ParetoOptions, error) {
	sel := &schedule.ParetoOptions{}
	switch req.Mode {
	case "", "front":
		sel.Mode = schedule.ModeFront
	case "lex":
		sel.Mode = schedule.ModeLex
	case "weighted":
		sel.Mode = schedule.ModeWeighted
	default:
		return nil, badRequest("service: unknown pareto mode %q (want front|lex|weighted)", req.Mode)
	}
	if sel.Mode != schedule.ModeLex && len(req.LexOrder) > 0 {
		return nil, badRequest("service: lex_order is only valid with mode \"lex\"")
	}
	if sel.Mode != schedule.ModeWeighted && len(req.Weights) > 0 {
		return nil, badRequest("service: weights are only valid with mode \"weighted\"")
	}
	for _, name := range req.LexOrder {
		o, err := schedule.ParseObjective(name)
		if err != nil {
			return nil, &BadRequestError{Err: err}
		}
		sel.LexOrder = append(sel.LexOrder, o)
	}
	for name, w := range req.Weights {
		o, err := schedule.ParseObjective(name)
		if err != nil {
			return nil, &BadRequestError{Err: err}
		}
		sel.Weights[o] = w
	}
	if err := sel.ValidateSelection(); err != nil {
		return nil, &BadRequestError{Err: err}
	}
	return sel, nil
}

// validateParetoRequest reuses the map request validation for the
// shared fields and checks the Pareto-specific knobs.
func validateParetoRequest(req *ParetoRequest) (*uda.Algorithm, int, *schedule.ParetoOptions, error) {
	mreq := &MapRequest{
		Algorithm:    req.Algorithm,
		Sizes:        req.Sizes,
		Bounds:       req.Bounds,
		Dependencies: req.Dependencies,
		Dims:         req.Dims,
		MaxEntry:     req.MaxEntry,
		MaxCost:      req.MaxCost,
	}
	algo, dims, err := validateMapRequest(mreq)
	if err != nil {
		return nil, 0, nil, err
	}
	if req.TimeSlack < 0 || req.TimeSlack > maxTimeSlack {
		return nil, 0, nil, badRequest("service: time_slack %d out of range [0, %d]", req.TimeSlack, maxTimeSlack)
	}
	sel, err := paretoSelection(req)
	if err != nil {
		return nil, 0, nil, err
	}
	return algo, dims, sel, nil
}

// paretoCacheKey is the front's composite cache/shard identity. The
// selection knobs are absent by design (see the file comment).
func paretoCacheKey(canonKey string, dims int, req *ParetoRequest) string {
	return fmt.Sprintf("pareto|%s|dims=%d|me=%d|mc=%d|slack=%d", canonKey, dims, req.MaxEntry, req.MaxCost, req.TimeSlack)
}

// Pareto answers a multi-objective front query through the workload
// path (see workload.go), then selects Best under the request's mode.
func (s *Service) Pareto(ctx context.Context, req *ParetoRequest) (*ParetoResponse, CacheStatus, error) {
	done, err := s.begin()
	if err != nil {
		return nil, "", err
	}
	defer done()

	algo, dims, sel, err := validateParetoRequest(req)
	if err != nil {
		return nil, "", err
	}

	canonStart := time.Now()
	w := newParetoWork(Canonicalize(algo), dims, req)
	recordStage(ctx, stageCanonicalize, canonStart)
	res, status, err := s.resolve(ctx, w)
	if err != nil {
		return nil, status, err
	}
	resp, err := s.paretoResponse(ctx, algo, w.canon, w.key, dims, sel, res.(*schedule.ParetoResult))
	if err != nil {
		return nil, "", err
	}
	return resp, status, nil
}

// paretoWork is the front workload: the multi-objective joint search,
// certified before it is cached.
type paretoWork struct{ *workProblem }

func newParetoWork(canon *Canonical, dims int, req *ParetoRequest) paretoWork {
	return paretoWork{&workProblem{
		kind:      cluster.KindPareto,
		canon:     canon,
		dims:      dims,
		key:       paretoCacheKey(canon.Key, dims, req),
		maxEntry:  req.MaxEntry,
		maxCost:   req.MaxCost,
		timeSlack: req.TimeSlack,
		timeoutMS: req.TimeoutMS,
	}}
}

func (w paretoWork) search(ctx context.Context, s *Service) (any, *schedule.SearchStats, error) {
	res, err := s.searchPareto(ctx, w.canon.Algo, w.dims, &schedule.ParetoOptions{
		Space: schedule.SpaceOptions{
			MaxEntry: w.maxEntry,
			Schedule: schedule.Options{MaxCost: w.maxCost, Workers: s.cfg.SearchWorkers},
		},
		TimeSlack: w.timeSlack,
		// ModeFront: selection happens per request, after the cache.
	})
	if err != nil {
		return nil, nil, err
	}
	// No front enters the cache uncertified: the independent verifier
	// re-derives every member certificate, every objective vector, and
	// the non-domination/order invariants. A failure here is an engine
	// bug, not a bad request — surface it loudly.
	if err := certifyFront(ctx, w.canon.Algo, res); err != nil {
		return nil, nil, fmt.Errorf("service: front failed certification: %w", err)
	}
	return res, res.Stats, nil
}

// certifyFront runs the Pareto verifier over a canonical-coordinate
// front. Optimality analysis is skipped — slack-window members are
// deliberately non-optimal in time — but member validity, conflict-
// freedom, objective recomputation, the window, non-domination, and
// the pinned order are all re-derived.
func certifyFront(ctx context.Context, canonAlgo *uda.Algorithm, res *schedule.ParetoResult) error {
	inputs := make([]verify.ParetoInput, len(res.Front))
	for i, m := range res.Front {
		inputs[i] = verify.ParetoInput{S: m.Mapping.S, Pi: m.Mapping.Pi, Vector: [verify.ParetoAxes]int64(m.Vector)}
	}
	cert, err := verify.CertifyPareto(ctx, canonAlgo, inputs, res.TimeBound, &verify.Options{SkipOptimality: true})
	if err != nil {
		return err
	}
	return cert.Err()
}

// paretoResponse translates a canonical front into the request's axis
// order and selects Best under the request's mode. The translation is
// an index-space isomorphism, so every objective vector is invariant;
// only S's columns and Π's entries move.
func (s *Service) paretoResponse(ctx context.Context, algo *uda.Algorithm, canon *Canonical, key string, dims int, sel *schedule.ParetoOptions, res *schedule.ParetoResult) (*ParetoResponse, error) {
	defer recordStage(ctx, stageTranslate, time.Now())
	best, err := schedule.SelectBest(res.Front, sel)
	if err != nil {
		// Selection was validated before the search; failing here means a
		// cached front turned empty, which cannot happen.
		return nil, err
	}
	front := make([]ParetoFrontMember, len(res.Front))
	for i, m := range res.Front {
		front[i] = ParetoFrontMember{
			S:          matrixRows(canon.MatrixToRequest(m.Mapping.S)),
			Pi:         canon.VectorToRequest(m.Mapping.Pi),
			TotalTime:  m.Vector[schedule.ObjTime],
			Processors: m.Vector[schedule.ObjProcessors],
			Buffers:    m.Vector[schedule.ObjBuffers],
			Links:      m.Vector[schedule.ObjLinks],
		}
	}
	return &ParetoResponse{
		Algorithm:    algo.Name,
		Dim:          algo.Dim(),
		NumDeps:      algo.NumDeps(),
		Bounds:       algo.Set.Upper,
		Dims:         dims,
		Front:        front,
		Best:         best,
		TimeBound:    res.TimeBound,
		Candidates:   res.Candidates,
		Pruned:       res.Pruned,
		Certified:    true,
		CanonicalKey: key,
	}, nil
}

// toWire flattens a canonical front for the peer protocol.
func (paretoWork) toWire(v any) any {
	res := v.(*schedule.ParetoResult)
	members := make([]cluster.ParetoWireMember, len(res.Front))
	for i, m := range res.Front {
		members[i] = cluster.ParetoWireMember{
			S:      matrixRows(m.Mapping.S),
			Pi:     m.Mapping.Pi,
			Vector: [cluster.ParetoAxes]int64(m.Vector),
		}
	}
	return &cluster.ParetoWireResult{
		Members:    members,
		TimeBound:  res.TimeBound,
		Candidates: res.Candidates,
		Pruned:     res.Pruned,
	}
}

// fromWire decodes a peer-supplied front, revalidates it end to end and
// reassembles the canonical ParetoResult. The revalidation IS the
// Pareto verifier: every member independently re-certified, every
// objective vector recomputed, the window, non-domination and pinned
// order re-checked — so a buggy or malicious peer cannot plant an
// invalid member, a dominated vector, or a misordered front.
func (pw paretoWork) fromWire(ctx context.Context, raw json.RawMessage) (any, error) {
	var w cluster.ParetoWireResult
	if err := decodeJSONBytes(raw, &w); err != nil {
		return nil, err
	}
	canonAlgo, dims := pw.canon.Algo, pw.dims
	if len(w.Members) == 0 {
		return nil, errors.New("service: peer front is empty")
	}
	n := canonAlgo.Dim()
	res := &schedule.ParetoResult{
		Front:      make([]schedule.ParetoMember, len(w.Members)),
		TimeBound:  w.TimeBound,
		Candidates: w.Candidates,
		Pruned:     w.Pruned,
	}
	for i := range w.Members {
		wm := &w.Members[i]
		if len(wm.S) != dims {
			return nil, fmt.Errorf("service: peer front member %d has %d space rows, want %d", i, len(wm.S), dims)
		}
		for r, row := range wm.S {
			if len(row) != n {
				return nil, fmt.Errorf("service: peer front member %d S row %d has %d entries, want %d", i, r+1, len(row), n)
			}
		}
		if len(wm.Pi) != n {
			return nil, fmt.Errorf("service: peer front member %d Π has %d entries, want %d", i, len(wm.Pi), n)
		}
		m, err := schedule.NewMapping(canonAlgo, intmat.FromRows(wm.S...), intmat.Vector(wm.Pi))
		if err != nil {
			return nil, fmt.Errorf("service: peer front member %d rejected: %w", i, err)
		}
		res.Front[i] = schedule.ParetoMember{Mapping: m, Vector: schedule.ObjectiveVector(wm.Vector)}
	}
	if err := certifyFront(ctx, canonAlgo, res); err != nil {
		return nil, fmt.Errorf("service: peer front rejected: %w", err)
	}
	return res, nil
}

// size approximates the resident size of one cached front, like
// mapWork.size per member.
func (pw paretoWork) size(v any) int64 {
	res := v.(*schedule.ParetoResult)
	b := int64(len(pw.key)) + 512
	for _, m := range res.Front {
		if m.Mapping == nil {
			continue
		}
		n := int64(m.Mapping.S.Cols())
		rows := int64(m.Mapping.S.Rows())
		b += 256 + 8*n*(2*rows+2)
	}
	return b
}
