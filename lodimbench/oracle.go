package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"lodim/internal/intmat"
	"lodim/internal/verify"
)

// oracle checks every answer against the manifest's recorded optimum
// and recertifies every distinct map answer with the independent
// verifier. Cheap checks run inline; certification runs after the
// timed phases (certify), so it never competes with the server for the
// CPU while latency is being measured.
type oracle struct {
	mu      sync.Mutex
	pending map[string]mappingClaim // distinct answers awaiting certify
}

// mappingClaim is a map answer restated in manifest axes: certifying
// it certifies every axis-permuted answer that maps back to it, since
// an axis permutation is an isomorphism of the index space.
type mappingClaim struct {
	prob *problem
	s    [][]int64
	pi   []int64
}

func newOracle() *oracle {
	return &oracle{pending: map[string]mappingClaim{}}
}

type mapAnswer struct {
	S          [][]int64 `json:"space_mapping"`
	Pi         []int64   `json:"schedule"`
	TotalTime  int64     `json:"total_time"`
	Processors int64     `json:"processors"`
}

type paretoAnswer struct {
	Front []struct {
		TotalTime int64 `json:"total_time"`
	} `json:"front"`
	Certified bool `json:"certified"`
}

type verifyAnswer struct {
	Valid         bool   `json:"valid"`
	FailedWitness string `json:"failed_witness"`
}

func okStatus(rep *reply) error {
	if rep.status != 200 {
		return fmt.Errorf("status %d: %.200s", rep.status, rep.body)
	}
	return nil
}

// checkMap checks one /v1/map answer to q and queues its mapping for
// recertification.
func (o *oracle) checkMap(q restated, rep *reply) (*mapAnswer, error) {
	if err := okStatus(rep); err != nil {
		return nil, err
	}
	var a mapAnswer
	if err := json.Unmarshal(rep.body, &a); err != nil {
		return nil, fmt.Errorf("decode map answer: %w", err)
	}
	inst := q.prob.inst
	if a.TotalTime != inst.TotalTime || a.Processors != inst.Processors {
		return nil, fmt.Errorf("%s: map answer time=%d processors=%d, manifest optimum time=%d processors=%d",
			inst.ID, a.TotalTime, a.Processors, inst.TotalTime, inst.Processors)
	}
	n := len(q.perm)
	if len(a.Pi) != n {
		return nil, fmt.Errorf("%s: schedule has %d entries, want %d", inst.ID, len(a.Pi), n)
	}
	claim := mappingClaim{prob: q.prob, pi: make([]int64, n), s: make([][]int64, len(a.S))}
	for i, ax := range q.perm {
		claim.pi[ax] = a.Pi[i]
	}
	for r, row := range a.S {
		if len(row) != n {
			return nil, fmt.Errorf("%s: space row %d has %d entries, want %d", inst.ID, r, len(row), n)
		}
		claim.s[r] = make([]int64, n)
		for i, ax := range q.perm {
			claim.s[r][ax] = row[i]
		}
	}
	key := fmt.Sprint(q.prob.key, claim.s, claim.pi)
	o.mu.Lock()
	o.pending[key] = claim
	o.mu.Unlock()
	return &a, nil
}

// checkPareto checks a /v1/pareto answer: certified, with its front
// head at the manifest's optimal total time.
func (o *oracle) checkPareto(q restated, rep *reply) error {
	if err := okStatus(rep); err != nil {
		return err
	}
	var a paretoAnswer
	if err := json.Unmarshal(rep.body, &a); err != nil {
		return fmt.Errorf("decode pareto answer: %w", err)
	}
	inst := q.prob.inst
	if !a.Certified || len(a.Front) == 0 {
		return fmt.Errorf("%s: pareto answer certified=%v with %d members", inst.ID, a.Certified, len(a.Front))
	}
	if a.Front[0].TotalTime != inst.TotalTime {
		return fmt.Errorf("%s: pareto front head time=%d, manifest optimum %d", inst.ID, a.Front[0].TotalTime, inst.TotalTime)
	}
	return nil
}

func (o *oracle) checkVerify(q restated, rep *reply) error {
	if err := okStatus(rep); err != nil {
		return err
	}
	var a verifyAnswer
	if err := json.Unmarshal(rep.body, &a); err != nil {
		return fmt.Errorf("decode verify answer: %w", err)
	}
	if !a.Valid {
		return fmt.Errorf("%s: verify says invalid (%s)", q.prob.inst.ID, a.FailedWitness)
	}
	return nil
}

// certify recertifies every queued distinct map answer and returns
// how many were certified and the failures.
func (o *oracle) certify(ctx context.Context) (int, []error) {
	o.mu.Lock()
	keys := make([]string, 0, len(o.pending))
	for k := range o.pending {
		keys = append(keys, k)
	}
	claims := o.pending
	o.pending = map[string]mappingClaim{}
	o.mu.Unlock()
	sort.Strings(keys)
	var errs []error
	for _, k := range keys {
		if err := certifyClaim(ctx, claims[k]); err != nil {
			errs = append(errs, err)
		}
	}
	return len(keys), errs
}

func certifyClaim(ctx context.Context, c mappingClaim) error {
	inst := c.prob.inst
	algo, err := inst.Algorithm()
	if err != nil {
		return err
	}
	s := intmat.New(len(c.s), len(c.pi))
	for r, row := range c.s {
		s.SetRow(r, row)
	}
	cert, err := verify.CertifyContext(ctx, algo, s, intmat.Vector(c.pi), &verify.Options{SkipOptimality: true})
	if err != nil {
		return fmt.Errorf("%s: certify: %w", inst.ID, err)
	}
	if !cert.Valid || !cert.ConflictFree || cert.TotalTime != inst.TotalTime {
		return fmt.Errorf("%s: certificate valid=%v conflict_free=%v time=%d (%s %s), manifest optimum %d",
			inst.ID, cert.Valid, cert.ConflictFree, cert.TotalTime, cert.FailedWitness, cert.FailedDetail, inst.TotalTime)
	}
	return nil
}
