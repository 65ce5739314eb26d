package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// testManifest is the committed corpus, seen from this package's
// directory.
const testManifest = "../corpus/manifest.jsonl"

func loadTestProblems(t *testing.T) *problemSet {
	t.Helper()
	ps, err := loadProblems(testManifest)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// bodies renders the first n requests of every workload's first pass
// as the bytes a client sends.
func bodies(ps *problemSet, seed uint64, n int) [][]byte {
	var out [][]byte
	hot := passOrder(ps.hotSet(), seed, "map-hit", 0)
	search := passOrder(ps.all, seed, "map-search/closed", 0)
	session := passOrder(ps.filter(func(f string) bool { return f != "bitlevel" }), seed, "cluster-session/closed", 0)
	for i := 0; i < n; i++ {
		out = append(out, mustJSON(hitRequest(hot, seed, "closed", i).mapRequest()))
		out = append(out, mustJSON(searchRequest(search, seed, "closed", 0, i).mapRequest()))
		q1, q2 := sessionRequests(session, seed, "closed", 0, i)
		out = append(out, mustJSON(q1.paretoRequest()), mustJSON(q2.mapRequest()))
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	ps := loadTestProblems(t)
	a, b := bodies(ps, 7, 300), bodies(loadTestProblems(t), 7, 300)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs for one seed:\n%s\n%s", i, a[i], b[i])
		}
	}
	c := bodies(ps, 8, 300)
	same := 0
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 produced the same requests")
	}
}

func TestOpenLoopReplaysOneTrace(t *testing.T) {
	ps := loadTestProblems(t)
	order := func(seed uint64) []*problem {
		return passOrder(ps.all, orderSeed(seed, "open"), "map-search/open", 1)
	}
	a, b := order(7), order(8)
	samePerm := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("open-loop request %d: seed 7 sends %s, seed 8 %s", i, a[i].inst.ID, b[i].inst.ID)
		}
		if bytes.Equal(mustJSON(searchRequest(a, 7, "open", 1, i).mapRequest()), mustJSON(searchRequest(b, 8, "open", 1, i).mapRequest())) {
			samePerm++
		}
	}
	if samePerm == len(a) {
		t.Fatal("seeds 7 and 8 sent the same open-loop bodies")
	}
	if orderSeed(7, "closed") == orderSeed(8, "closed") {
		t.Fatal("the closed loop's order does not follow the seed")
	}
}

func TestPassesCoverDistinctKeys(t *testing.T) {
	ps := loadTestProblems(t)
	if len(ps.all) != 1128 {
		t.Fatalf("distinct feasible problems = %d, want 1128", len(ps.all))
	}
	order := passOrder(ps.all, 3, "map-search/closed", 0)
	seen := map[string]bool{}
	for _, p := range order {
		if seen[p.key] {
			t.Fatalf("key %s repeats within a pass", p.key)
		}
		seen[p.key] = true
	}
	if len(seen) != len(ps.all) {
		t.Fatalf("pass covers %d of %d problems", len(seen), len(ps.all))
	}
}

// runOps runs ops 0..n-1 of the segment on the benchmark's client and
// returns the recorder.
func runOps(t *testing.T, seg *segment, n int) *recorder {
	t.Helper()
	rec := newRecorder(nil)
	c := newClient(nil)
	defer c.close()
	for i := 0; i < n; i++ {
		seg.run(context.Background(), c, i, time.Now(), rec)
	}
	return rec
}

func TestMapSearchRequestsAllMiss(t *testing.T) {
	b := &bench{seed: 5, spans: &spanLog{}, oracle: newOracle(), probs: loadTestProblems(t)}
	next, release, err := setupMapSearch(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	seg, err := next(context.Background(), "closed", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	const n = 150
	rec := runOps(t, seg, n)
	if rec.failures != 0 || rec.cache["map:miss"] != n {
		t.Fatalf("failures %d %v, dispositions %v; want %d misses", rec.failures, rec.errs, rec.cache, n)
	}
}

func TestMapHitRequestsAllHit(t *testing.T) {
	b := &bench{seed: 5, spans: &spanLog{}, oracle: newOracle(), probs: loadTestProblems(t)}
	next, release, err := setupMapHit(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	seg, err := next(context.Background(), "closed", 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2 * hotSetSize
	rec := runOps(t, seg, n)
	if rec.failures != 0 || rec.cache["map:hit"] != n {
		t.Fatalf("failures %d %v, dispositions %v; want %d hits", rec.failures, rec.errs, rec.cache, n)
	}
	if certified, errs := b.oracle.certify(context.Background()); certified == 0 || len(errs) != 0 {
		t.Fatalf("certified %d answers, errors %v", certified, errs)
	}
}

func TestOracleRejectsTamperedOptimum(t *testing.T) {
	ps := loadTestProblems(t)
	ns, err := startNodes(1, &spanLog{})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.close()
	c := newClient(nil)
	defer c.close()
	p := ps.hotSet()[0]
	q := restate(p, rng(1, "test", 0))
	rep, err := c.post(context.Background(), ns.list[0].url+"/v1/map", mustJSON(q.mapRequest()), 1)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle()
	if _, err := o.checkMap(q, rep); err != nil {
		t.Fatalf("true optimum rejected: %v", err)
	}

	tampered := *p
	tampered.inst.TotalTime++
	tq := q
	tq.prob = &tampered
	if _, err := o.checkMap(tq, rep); err == nil {
		t.Fatal("answer accepted against a tampered optimum")
	}
	// The certificate is judged against the recorded optimum too.
	if err := certifyClaim(context.Background(), mappingClaim{prob: &tampered, s: o.anyClaim().s, pi: o.anyClaim().pi}); err == nil {
		t.Fatal("certification passed against a tampered optimum")
	}
}

// anyClaim returns one queued claim (tests only).
func (o *oracle) anyClaim() mappingClaim {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, c := range o.pending {
		return c
	}
	return mappingClaim{}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if got := minSamples(0.99); got != 1000 {
		t.Fatalf("minSamples(0.99) = %d, want 1000", got)
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tailPercentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	xs = append(xs, 999)
	v, err := tailPercentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Fatalf("p99 %v has %d samples beyond it", v, beyond)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in
// step: every listed workload exists with the same why, and the metrics
// are the same with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		benchmarkFile
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads", len(bf.Workloads))
	}
	for _, bw := range bf.Workloads {
		w, err := workloadByName(bw.Name)
		if err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
			continue
		}
		if w.why != bw.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program %q", bw.Name, bw.Why, w.why)
		}
	}
	var e2e []metricSpec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricSpec)
	}
	for _, pair := range []struct {
		name      string
		json, got []metricSpec
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		a, b := append([]metricSpec(nil), pair.json...), append([]metricSpec(nil), pair.got...)
		sort.Slice(a, func(i, j int) bool { return a[i].Name < a[j].Name })
		sort.Slice(b, func(i, j int) bool { return b[i].Name < b[j].Name })
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", pair.name, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: BENCHMARK.json %+v, program %+v", pair.name, a[i], b[i])
			}
		}
	}
}
