package schedule

import (
	"context"
	"sync"
	"sync/atomic"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// ladderMaxEntries caps what one Π ladder stores: each stored level
// counts one entry for itself plus one per Π it holds. A level that
// would pass the cap is not stored, and neither is any later one, nor
// any level of a cost above the cap; such levels are enumerated on the
// fly at every visit, so a problem with no schedule or a huge cost
// ceiling cannot grow the heap.
const ladderMaxEntries = 1 << 14

// piLadder is the per-search Π ladder: for each objective level
// c = Σ|π_i|·μ_i it lists the schedule vectors with ΠD > 0 in
// enumerate's lexicographic order. Procedure 5.1 and the joint and
// Pareto searches all walk these levels, and neither the enumeration
// nor the ΠD > 0 test depends on the space mapping S — so one search
// builds each level once, lazily, and every inner search and worker
// reads it. Stored levels are read-only.
//
// Each stored Π keeps its ordinal among all Π of its level, and each
// level its raw size, so the candidate counters (which count every
// enumerated Π, valid or not) stay exact without re-enumerating.
//
// A search that visits each level once (a Procedure 5.1 run of its
// own) gains nothing from storage; its ladder stores nothing and
// streams every level through the same iterator.
type piLadder struct {
	mu       intmat.Vector   // objective weights: the index-set bounds
	depCols  []intmat.Vector // the dependence columns d̄_i
	capacity int             // ladderMaxEntries; tests lower it

	// chunks[c/ladderChunk] holds level c; a chunk is allocated on the
	// first build inside it, so the index costs one pointer per
	// ladderChunk levels of the stored range. Readers load levels
	// without the lock; builds take it.
	chunks []atomic.Pointer[levelChunk]
	lock   sync.Mutex
	built  sync.Cond // broadcast when a build ends
	stored int       // entries charged against capacity
	full   bool      // a level did not fit: no later level is stored
}

const ladderChunk = 64

// levelChunk holds ladderChunk consecutive levels of a piLadder.
type levelChunk struct {
	levels   [ladderChunk]atomic.Pointer[piLevel] // nil until stored
	building [ladderChunk]bool                    // guarded by the ladder's lock
}

// piLevel is one stored level of a piLadder.
type piLevel struct {
	pis  []intmat.Vector // the Π with ΠD > 0, in enumeration order
	ords []int64         // ords[i]: ordinal of pis[i] among all Π of the level
	raw  int64           // number of Π in the level, valid or not
}

// newPiLadder returns an empty ladder for algo that may store the
// levels of cost ≤ storeUpTo: the search's cost ceiling when its inner
// loops share levels, 0 when it visits each level once.
func newPiLadder(algo *uda.Algorithm, storeUpTo int64) *piLadder {
	cols := make([]intmat.Vector, algo.NumDeps())
	for i := range cols {
		cols[i] = algo.D.Col(i)
	}
	l := &piLadder{mu: algo.Set.Upper, depCols: cols, capacity: ladderMaxEntries}
	if storeUpTo > 0 {
		l.chunks = make([]atomic.Pointer[levelChunk], min(storeUpTo, ladderMaxEntries)/ladderChunk+1)
	}
	l.built.L = &l.lock
	return l
}

// scan visits the Π of level cost that satisfy ΠD > 0, in enumeration
// order, until visit returns false. raw counts the Π of the level up to
// and including the last one visited (the whole level when visit never
// stops) and valid counts the visited ones, so raw − valid Π were
// rejected by ΠD > 0. ctx is polled every ctxCheckMask Π; an
// *OverflowError raised by the ΠD evaluation or by visit is returned as
// err.
func (l *piLadder) scan(ctx context.Context, cost int64, visit func(intmat.Vector) bool) (raw, valid int64, err error) {
	lv, err := l.level(ctx, cost)
	if err != nil {
		return 0, 0, err
	}
	defer intmat.Guard(&err)
	if lv == nil {
		raw, err = l.walk(ctx, cost, func(pi intmat.Vector, _ int64) bool {
			valid++
			return visit(pi)
		})
		return raw, valid, err
	}
	for i, pi := range lv.pis {
		if i&ctxCheckMask == ctxCheckMask && ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		if !visit(pi) {
			return lv.ords[i] + 1, int64(i + 1), nil
		}
	}
	return lv.raw, int64(len(lv.pis)), nil
}

// collect returns the valid Π of level cost and the level's raw size.
// A stored level is returned as is (the caller must not modify it);
// past the storage cap the Π are gathered for this call only.
func (l *piLadder) collect(ctx context.Context, cost int64) ([]intmat.Vector, int64, error) {
	lv, err := l.level(ctx, cost)
	if err != nil {
		return nil, 0, err
	}
	if lv != nil {
		return lv.pis, lv.raw, nil
	}
	var flat []int64
	raw, valid, err := l.scan(ctx, cost, func(pi intmat.Vector) bool {
		flat = append(flat, pi...)
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	return splitFlat(flat, int(valid), len(l.mu)), raw, nil
}

// floor returns the lowest cost in [1, maxCost] whose level holds a Π
// with ΠD > 0, or −1 when there is none. 1 + floor lower-bounds the
// total time of every schedule, whatever S is. The scan stops at the
// first valid Π and stores nothing: levels below the floor hold no
// candidate, and the floor level is built by the first search that
// evaluates it.
func (l *piLadder) floor(ctx context.Context, maxCost int64) (_ int64, err error) {
	defer intmat.Guard(&err)
	for cost := int64(1); cost <= maxCost; cost++ {
		if err := ctx.Err(); err != nil {
			return -1, err
		}
		found := false
		if _, err := l.walk(ctx, cost, func(intmat.Vector, int64) bool {
			found = true
			return false
		}); err != nil {
			return -1, err
		}
		if found {
			return cost, nil
		}
	}
	return -1, nil
}

// level returns the stored level at cost, building it on first use, or
// nil when it is not stored: its cost is past the stored range or it
// does not fit under the storage cap. Concurrent askers of a level
// under construction wait for that one build instead of repeating it;
// readers of built levels never wait. A build interrupted by ctx or by
// overflow stores nothing and returns its error; a waiter then builds
// the level itself.
func (l *piLadder) level(ctx context.Context, cost int64) (*piLevel, error) {
	if cost < 0 || cost/ladderChunk >= int64(len(l.chunks)) {
		return nil, nil
	}
	slot := &l.chunks[cost/ladderChunk]
	i := cost % ladderChunk
	if c := slot.Load(); c != nil {
		if lv := c.levels[i].Load(); lv != nil {
			return lv, nil
		}
	}
	l.lock.Lock()
	c := slot.Load()
	if c == nil {
		if l.full {
			l.lock.Unlock()
			return nil, nil
		}
		c = &levelChunk{}
		slot.Store(c)
	}
	for c.building[i] {
		l.built.Wait()
	}
	if lv := c.levels[i].Load(); lv != nil || l.full {
		l.lock.Unlock()
		return lv, nil
	}
	budget := l.capacity - l.stored - 1
	if budget < 0 {
		l.full = true
		l.lock.Unlock()
		return nil, nil
	}
	c.building[i] = true
	l.lock.Unlock()

	lv, err := l.build(ctx, cost, budget)

	l.lock.Lock()
	defer l.lock.Unlock()
	c.building[i] = false
	l.built.Broadcast()
	switch {
	case err != nil:
		return nil, err
	case lv != nil && l.stored+1+len(lv.pis) <= l.capacity:
		l.stored += 1 + len(lv.pis)
		c.levels[i].Store(lv)
	default:
		// Past the cap. A level that fit the budget but no longer the
		// capacity (another level was stored meanwhile) still serves
		// this caller.
		l.full = true
	}
	return lv, nil
}

// build enumerates level cost, keeping at most budget Π; it returns
// nil when the level holds more.
func (l *piLadder) build(ctx context.Context, cost int64, budget int) (lv *piLevel, err error) {
	defer intmat.Guard(&err)
	lv = &piLevel{}
	var flat []int64
	fits := true
	lv.raw, err = l.walk(ctx, cost, func(pi intmat.Vector, ord int64) bool {
		if len(lv.ords) == budget {
			fits = false
			return false
		}
		flat = append(flat, pi...)
		lv.ords = append(lv.ords, ord)
		return true
	})
	if err != nil || !fits {
		return nil, err
	}
	lv.pis = splitFlat(flat, len(lv.ords), len(l.mu))
	return lv, nil
}

// walk enumerates level cost and calls emit for every Π with ΠD > 0,
// passing its ordinal among all Π of the level, until emit returns
// false. It returns the number of Π enumerated (the whole level unless
// emit stopped early) and ctx's error when a poll finds it done. The
// ΠD products are overflow-checked and panic with *OverflowError; the
// callers convert that with intmat.Guard. walk is the only caller of
// enumerate.
func (l *piLadder) walk(ctx context.Context, cost int64, emit func(pi intmat.Vector, ord int64) bool) (raw int64, err error) {
	enumerate(l.mu, cost, func(pi intmat.Vector) bool {
		raw++
		if raw&ctxCheckMask == 0 && ctx.Err() != nil {
			err = ctx.Err()
			return false
		}
		for _, d := range l.depCols {
			if pi.Dot(d) <= 0 {
				return true
			}
		}
		return emit(pi, raw-1)
	})
	return raw, err
}

// splitFlat cuts count vectors of length n out of flat storage.
func splitFlat(flat []int64, count, n int) []intmat.Vector {
	out := make([]intmat.Vector, count)
	for i := range out {
		out[i] = intmat.Vector(flat[i*n : (i+1)*n : (i+1)*n])
	}
	return out
}
