package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"lodim/internal/corpus"
	"lodim/internal/service"
)

// manifestPath is the committed scenario corpus, relative to the
// repository root the benchmark runs from.
const manifestPath = "corpus/manifest.jsonl"

// hotSetSize is the map-hit working set: well under the service's
// default 1024-entry cache, so every timed request is a hit.
const hotSetSize = 256

// problem is one distinct feasible mapping problem of the corpus: the
// first manifest instance of its cache key, in manifest axes, with the
// optimum the manifest recorded for it.
type problem struct {
	inst corpus.Instance
	key  string // canonical key plus the knobs that change the answer
}

// problemSet is the corpus reduced to distinct feasible cache keys.
type problemSet struct {
	all []*problem
}

// loadProblems reads the manifest and keeps the first feasible
// instance of every distinct cache key. The key mirrors the service's
// own cache key: the public canonical problem key plus dims, max_entry
// and max_cost (the benchmark sends no wire_weight).
func loadProblems(path string) (*problemSet, error) {
	_, insts, err := corpus.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load manifest: %w", err)
	}
	seen := make(map[string]bool, len(insts))
	ps := &problemSet{}
	for i := range insts {
		inst := insts[i]
		if !inst.Feasible {
			continue
		}
		algo, err := inst.Algorithm()
		if err != nil {
			return nil, fmt.Errorf("manifest instance %s: %w", inst.ID, err)
		}
		key := cacheKey(service.Canonicalize(algo).Key, inst)
		if seen[key] {
			continue
		}
		seen[key] = true
		ps.all = append(ps.all, &problem{inst: inst, key: key})
	}
	if len(ps.all) < hotSetSize {
		return nil, fmt.Errorf("manifest has %d distinct feasible problems, need at least %d", len(ps.all), hotSetSize)
	}
	return ps, nil
}

func cacheKey(canonKey string, inst corpus.Instance) string {
	dims := inst.Dims
	if dims == 0 {
		dims = 1
	}
	return fmt.Sprintf("%s|dims=%d|me=%d|ww=0|mc=%d", canonKey, dims, inst.MaxEntry, inst.MaxCost)
}

// filter returns the problems whose family passes keep, in manifest
// order.
func (ps *problemSet) filter(keep func(family string) bool) []*problem {
	var out []*problem
	for _, p := range ps.all {
		if keep(p.inst.Family) {
			out = append(out, p)
		}
	}
	return out
}

// hotSet is the fixed map-hit working set: every family in proportion
// to its share of the distinct problems, taken evenly through manifest
// order. It does not depend on the seed, so set-up (which fills the
// cache with it) costs the same on every run.
func (ps *problemSet) hotSet() []*problem {
	return interleave(ps.all, hotSetSize, nil)
}

// interleave returns n problems (all of them when n ≤ 0) ordered so
// that every prefix holds each family in proportion to its share: a
// run that stops part-way through a pass still sees the pass's mix.
// With r non-nil each family is ordered by stratifiedShuffle; with r
// nil each family is sampled evenly in manifest order.
func interleave(probs []*problem, n int, r *rand.Rand) []*problem {
	var families []string
	byFamily := map[string][]*problem{}
	for _, p := range probs {
		if _, ok := byFamily[p.inst.Family]; !ok {
			families = append(families, p.inst.Family)
		}
		byFamily[p.inst.Family] = append(byFamily[p.inst.Family], p)
	}
	sort.Strings(families)
	if n <= 0 || n > len(probs) {
		n = len(probs)
	}
	for _, f := range families {
		list := byFamily[f]
		if r != nil {
			byFamily[f] = stratifiedShuffle(list, r)
			continue
		}
		// Even sample: quota proportional to the family's share.
		q := (n*len(list) + len(probs) - 1) / len(probs)
		picked := make([]*problem, 0, q)
		for i := 0; i < q; i++ {
			picked = append(picked, list[i*len(list)/q])
		}
		byFamily[f] = picked
	}
	out := make([]*problem, 0, n)
	taken := map[string]int{}
	for len(out) < n {
		best := ""
		var bestRatio float64
		for _, f := range families {
			if taken[f] == len(byFamily[f]) {
				continue
			}
			ratio := float64(taken[f]+1) / float64(len(byFamily[f]))
			if best == "" || ratio < bestRatio {
				best, bestRatio = f, ratio
			}
		}
		if best == "" {
			break
		}
		out = append(out, byFamily[best][taken[best]])
		taken[best]++
	}
	return out
}

// strata is how many problems of one family share a size stratum in
// stratifiedShuffle.
const strata = 8

// stratifiedShuffle orders one family's problems at random, but so
// that every prefix spreads over the family's range of difficulty: it
// sorts them by recorded optimal time (the search's cost levels grow
// with it), cuts the list into strata of similar size, and takes one
// random problem from each stratum per round. Each round visits the
// strata in bit-reversed order from a random start, so the hardest
// problems never arrive back to back. A run that ends part-way through
// a pass then measures nearly the same mix, and an open loop meets
// nearly the same spacing of heavy requests, whatever the seed.
func stratifiedShuffle(list []*problem, r *rand.Rand) []*problem {
	sorted := append([]*problem(nil), list...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].inst.TotalTime < sorted[j].inst.TotalTime })
	var groups [][]*problem
	for lo := 0; lo < len(sorted); lo += strata {
		g := append([]*problem(nil), sorted[lo:min(lo+strata, len(sorted))]...)
		r.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		groups = append(groups, g)
	}
	visit := bitReversed(len(groups))
	out := make([]*problem, 0, len(list))
	for round := 0; len(out) < len(list); round++ {
		start := r.IntN(len(visit))
		for k := range visit {
			gi := visit[(start+k)%len(visit)]
			if round < len(groups[gi]) {
				out = append(out, groups[gi][round])
			}
		}
	}
	return out
}

// bitReversed returns 0..n-1 in bit-reversed (van der Corput) order,
// in which neighbours are far apart.
func bitReversed(n int) []int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	out := make([]int, 0, n)
	for i := 0; i < 1<<bits; i++ {
		rev := 0
		for b := 0; b < bits; b++ {
			rev |= (i >> b & 1) << (bits - 1 - b)
		}
		if rev < n {
			out = append(out, rev)
		}
	}
	return out
}

// rng derives an independent generator for one (seed, stream, index)
// triple, so any request of a sequence can be regenerated alone.
func rng(seed uint64, stream string, idx uint64) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed^h, idx))
}

// passOrder is pass p of a workload's problem list: a seeded,
// family-interleaved order.
func passOrder(probs []*problem, seed uint64, stream string, pass int) []*problem {
	cp := append([]*problem(nil), probs...)
	return interleave(cp, 0, rng(seed, stream, uint64(pass)))
}

// restated is one problem as a client sends it: the manifest instance
// under an axis permutation (new axis i is manifest axis perm[i]).
type restated struct {
	prob *problem
	perm []int
	inst corpus.Instance
}

func restate(p *problem, r *rand.Rand) restated {
	perm := r.Perm(len(p.inst.Bounds))
	return restated{prob: p, perm: perm, inst: corpus.PermuteAxes(p.inst, perm)}
}

func (q restated) mapRequest() *service.MapRequest {
	return &service.MapRequest{
		Bounds:       q.inst.Bounds,
		Dependencies: q.inst.Dependencies,
		Dims:         q.inst.Dims,
		MaxEntry:     q.inst.MaxEntry,
		MaxCost:      q.inst.MaxCost,
	}
}

func (q restated) paretoRequest() *service.ParetoRequest {
	return &service.ParetoRequest{
		Bounds:       q.inst.Bounds,
		Dependencies: q.inst.Dependencies,
		Dims:         q.inst.Dims,
		MaxEntry:     q.inst.MaxEntry,
		MaxCost:      q.inst.MaxCost,
		TimeSlack:    1,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode request: %v", err))
	}
	return b
}
