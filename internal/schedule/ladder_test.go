package schedule

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// overflowAlgo is the int64-overflow repro: bounds [2,2], dependencies
// (MaxInt64, 1) and (1, 0). S·D and some Π·D leave int64 for most
// candidates.
func overflowAlgo() *uda.Algorithm {
	d := intmat.New(2, 2)
	d.SetCol(0, intmat.Vec(math.MaxInt64, 1))
	d.SetCol(1, intmat.Vec(1, 0))
	return &uda.Algorithm{Name: "overflow", Set: uda.IndexSet{Upper: intmat.Vec(2, 2)}, D: d}
}

// TestSearchOverflowIsAnError: the joint and Pareto searches on the
// overflow repro return an error wrapping *intmat.OverflowError at any
// worker count, instead of panicking inside a candidate loop.
func TestSearchOverflowIsAnError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		opts := Options{Workers: workers}
		_, err := FindJointMappingContext(context.Background(), overflowAlgo(), 1, &SpaceOptions{Schedule: opts})
		var oe *intmat.OverflowError
		if !errors.As(err, &oe) {
			t.Errorf("joint, workers=%d: err = %v, want an *intmat.OverflowError", workers, err)
		}
		_, err = FindParetoContext(context.Background(), overflowAlgo(), 1, &ParetoOptions{Space: SpaceOptions{Schedule: opts}})
		if !errors.As(err, &oe) {
			t.Errorf("pareto, workers=%d: err = %v, want an *intmat.OverflowError", workers, err)
		}
	}
}

// ladderCase decodes a compact problem encoding shared by the
// differential test and FuzzPiLadder: shape[0] picks n ∈ [1, 4],
// shape[1] the number of dependences m ∈ [1, 4], the next n bytes the
// bounds μ_i ∈ [1, 4], and the next n·m bytes the entries of D
// (column-major) in [−2, 2]; first, when non-zero, overrides D's
// (0, 0) entry so the corpus can carry int64-sized dependences.
func ladderCase(shape []byte, first int64) *uda.Algorithm {
	at := func(i int) byte {
		if i < len(shape) {
			return shape[i]
		}
		return 0
	}
	n, m := 1+int(at(0)%4), 1+int(at(1)%4)
	mu := make(intmat.Vector, n)
	for i := range mu {
		mu[i] = 1 + int64(at(2+i)%4)
	}
	d := intmat.New(n, m)
	for c := 0; c < m; c++ {
		for r := 0; r < n; r++ {
			d.Set(r, c, int64(at(2+n+c*n+r)%5)-2)
		}
	}
	if first != 0 {
		d.Set(0, 0, first)
	}
	return &uda.Algorithm{Name: "ladder-case", Set: uda.IndexSet{Upper: mu}, D: d}
}

// ladderCases returns the differential test's problems: random shapes
// with negative dependence entries, plus the overflow repro.
func ladderCases() (shapes [][]byte, firsts []int64) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 60; i++ {
		shape := make([]byte, 2+4+16)
		rng.Read(shape)
		shapes = append(shapes, shape)
		firsts = append(firsts, 0)
	}
	// Overflow repro: n = 2, m = 2, μ = (2, 2), D columns
	// (MaxInt64, 1) and (1, 0).
	shapes = append(shapes, []byte{1, 1, 1, 1, 0, 3, 3, 2})
	firsts = append(firsts, math.MaxInt64)
	return shapes, firsts
}

// refLevel is the plain enumerate-plus-filter reference for one level:
// the Π with ΠD > 0, their ordinals among all Π of the level, and the
// level's raw size, or the overflow the ΠD evaluation hit.
func refLevel(algo *uda.Algorithm, cost int64) (pis []intmat.Vector, ords []int64, raw int64, err error) {
	defer intmat.Guard(&err)
	enumerate(algo.Set.Upper, cost, func(pi intmat.Vector) bool {
		if Valid(pi, algo.D) {
			pis = append(pis, pi.Clone())
			ords = append(ords, raw)
		}
		raw++
		return true
	})
	return pis, ords, raw, nil
}

// checkLadder compares every level up to maxCost of a ladder with the
// given storage capacity against refLevel: the Π, their ordinals, the
// raw size, the stored copy (when stored), early-stopped scans, and
// collect — then reads every level a second time, now from storage.
func checkLadder(t *testing.T, algo *uda.Algorithm, capacity int, maxCost int64) {
	t.Helper()
	ctx := context.Background()
	l := newPiLadder(algo, maxCost)
	l.capacity = capacity
	for pass := 0; pass < 2; pass++ {
		for cost := int64(1); cost <= maxCost; cost++ {
			want, wantOrds, wantRaw, wantErr := refLevel(algo, cost)
			var got []intmat.Vector
			raw, valid, err := l.scan(ctx, cost, func(pi intmat.Vector) bool {
				got = append(got, pi.Clone())
				return true
			})
			if wantErr != nil {
				var oe *intmat.OverflowError
				if !errors.As(err, &oe) {
					t.Fatalf("%v cost %d: err = %v, reference overflowed", algo.D, cost, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("%v cost %d: %v", algo.D, cost, err)
			}
			if raw != wantRaw || valid != int64(len(want)) || !sameVecs(got, want) {
				t.Fatalf("%v cost %d: scan = %v (raw %d, valid %d), want %v (raw %d)",
					algo.D, cost, got, raw, valid, want, wantRaw)
			}
			if lv, _ := l.storedLevel(cost); lv != nil {
				if lv.raw != wantRaw || !sameVecs(lv.pis, want) || !sameInts(lv.ords, wantOrds) {
					t.Fatalf("%v cost %d: stored level %v ords %v raw %d, want %v ords %v raw %d",
						algo.D, cost, lv.pis, lv.ords, lv.raw, want, wantOrds, wantRaw)
				}
			}
			for k := range want {
				seen := 0
				raw, valid, err := l.scan(ctx, cost, func(intmat.Vector) bool {
					seen++
					return seen <= k
				})
				if err != nil || raw != wantOrds[k]+1 || valid != int64(k+1) {
					t.Fatalf("%v cost %d: scan stopped at valid Π %d = (raw %d, valid %d, %v), want (%d, %d)",
						algo.D, cost, k, raw, valid, err, wantOrds[k]+1, k+1)
				}
			}
			pis, raw, err := l.collect(ctx, cost)
			if err != nil || raw != wantRaw || !sameVecs(pis, want) {
				t.Fatalf("%v cost %d: collect = %v raw %d (%v), want %v raw %d", algo.D, cost, pis, raw, err, want, wantRaw)
			}
		}
	}
	if l.stored > capacity {
		t.Fatalf("ladder stored %d entries past its capacity %d", l.stored, capacity)
	}
	// The floor is the first level holding a valid Π (checked where no
	// level up to it overflows).
	wantFloor := int64(-1)
	for cost := int64(1); cost <= maxCost; cost++ {
		pis, _, _, err := refLevel(algo, cost)
		if err != nil {
			return
		}
		if len(pis) > 0 {
			wantFloor = cost
			break
		}
	}
	if got, err := newPiLadder(algo, maxCost).floor(ctx, maxCost); err != nil || got != wantFloor {
		t.Fatalf("%v: floor = %d (%v), want %d", algo.D, got, err, wantFloor)
	}
}

// storedLevel returns the ladder's stored level at cost, if any.
func (l *piLadder) storedLevel(cost int64) (*piLevel, bool) {
	if cost/ladderChunk >= int64(len(l.chunks)) {
		return nil, false
	}
	c := l.chunks[cost/ladderChunk].Load()
	if c == nil {
		return nil, false
	}
	lv := c.levels[cost%ladderChunk].Load()
	return lv, lv != nil
}

func sameVecs(a, b []intmat.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPiLadderMatchesEnumerate is the ladder's differential test: on
// random problems it must reproduce enumerate plus the ΠD > 0 filter
// level by level, with storage capacities that leave every level
// stored, none, and a cut through the middle (levels past the cap are
// enumerated on the fly).
func TestPiLadderMatchesEnumerate(t *testing.T) {
	shapes, firsts := ladderCases()
	for i := range shapes {
		algo := ladderCase(shapes[i], firsts[i])
		for _, capacity := range []int{0, 7, 40, ladderMaxEntries} {
			checkLadder(t, algo, capacity, 10)
		}
	}
}

// TestPiLadderCapCutsStorage: with a small capacity the ladder stops
// storing at the first level that does not fit, and stays within it.
func TestPiLadderCapCutsStorage(t *testing.T) {
	algo := ladderCase([]byte{2, 0, 0, 0, 0, 3, 3, 3}, 0) // n = 3, μ = 1, D = I
	l := newPiLadder(algo, 6)
	l.capacity = 12
	for cost := int64(1); cost <= 6; cost++ {
		if _, _, err := l.scan(context.Background(), cost, func(intmat.Vector) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	stored := 0
	for cost := int64(1); cost <= 6; cost++ {
		if _, ok := l.storedLevel(cost); ok {
			stored++
		}
	}
	if !l.full || l.stored > l.capacity || stored == 0 || stored == 6 {
		t.Fatalf("full = %v, stored = %d of %d, %d levels stored", l.full, l.stored, l.capacity, stored)
	}
}

// FuzzPiLadder checks the ladder against enumerate plus the ΠD > 0
// filter on arbitrary problems (see ladderCase for the encoding),
// including int64-sized dependences, which must surface as an
// *OverflowError rather than a panic.
func FuzzPiLadder(f *testing.F) {
	shapes, firsts := ladderCases()
	for i := range shapes {
		f.Add(shapes[i], firsts[i], uint16(40))
	}
	f.Fuzz(func(t *testing.T, shape []byte, first int64, capacity uint16) {
		checkLadder(t, ladderCase(shape, first), int(capacity%200), 8)
	})
}
