package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lodim/internal/cluster"
)

// overflowProblem's dependence entry 2⁶³−1 drives ΠD, the HNF and the
// wire length past int64 for any schedule.
const overflowProblem = `"bounds":[2,2],"dependencies":[[9223372036854775807,1],[1,0]]`

// hugePi overflows Π·d̄ on any dependence with two nonzero entries.
const hugePi = `[4611686018427387904,4611686018427387904,1]`

// newTrustService is a one-node cluster (so the peer routes are
// served and every key is owned locally) with the job tier on.
func newTrustService(t testing.TB) *Service {
	t.Helper()
	svc := New(Config{
		Pool:          2,
		SearchWorkers: 1,
		Cluster:       &ClusterConfig{Self: cluster.Member{ID: "solo", URL: "http://127.0.0.1:1"}},
		Jobs:          &JobsConfig{Dir: t.TempDir()},
	})
	t.Cleanup(svc.Close)
	return svc
}

// TestOverflowRequestsRejected: inputs whose arithmetic overflows
// int64 get a typed 400 on every endpoint that accepts a problem —
// public, job and peer — and the process keeps serving.
func TestOverflowRequestsRejected(t *testing.T) {
	svc := newTrustService(t)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	for _, c := range []struct{ path, body string }{
		{"/v1/map", `{` + overflowProblem + `}`},
		{"/v1/pareto", `{` + overflowProblem + `}`},
		{"/v1/verify", `{` + overflowProblem + `,"s":[[1,0]],"pi":[1,1]}`},
		{"/v1/simulate", `{` + overflowProblem + `,"s":[[1,0]],"pi":[1,1]}`},
		{"/v1/jobs", `{"map":{` + overflowProblem + `}}`},
		{"/v1/jobs", `{"verify":{` + overflowProblem + `,"s":[[1,0]],"pi":[1,1]}}`},
		{cluster.FillPath, `{"kind":"map","key":"x",` + overflowProblem + `,"dims":1,"result":{}}`},
		{cluster.FillPath, `{"kind":"pareto","key":"x",` + overflowProblem + `,"dims":1,"result":{}}`},
		// In-range problems whose request-supplied Π overflows ΠD.
		{"/v1/verify", `{` + e2eBody[1:len(e2eBody)-1] + `,"s":[[1,0,0]],"pi":` + hugePi + `}`},
		{"/v1/simulate", `{` + e2eBody[1:len(e2eBody)-1] + `,"s":[[1,0,0]],"pi":` + hugePi + `}`},
	} {
		status, _, body := postJSON(t, srv.URL+c.path, c.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", c.path, c.body, status, body)
		}
	}
	if n := svc.met.peerFillsRejected.Load(); n != 2 {
		t.Errorf("rejected peer fills = %d, want 2", n)
	}
	if n := svc.CacheLen(); n != 0 {
		t.Errorf("rejected requests left %d cache entries", n)
	}
	if status, _, body := httpReq(t, http.MethodGet, srv.URL+"/healthz", ""); status != http.StatusOK {
		t.Errorf("/healthz after the repros: %d (%s)", status, body)
	}
}

// fillBody encodes a peer fill carrying a result's wire form.
func fillBody(tb testing.TB, w workload, wireResult any) []byte {
	tb.Helper()
	raw, err := json.Marshal(wireResult)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(&cluster.FillRequest{Problem: w.problem().wire(), Result: raw})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// peerFillSeeds returns a one-node service and peer fill bodies: a
// genuine map fill and a genuine pareto fill first, then the overflow
// repro, a doctored Π and a doctored objective vector.
func peerFillSeeds(tb testing.TB) (*Service, [][]byte) {
	tb.Helper()
	svc := newTrustService(tb)
	var mreq MapRequest
	var preq ParetoRequest
	if err := json.Unmarshal([]byte(e2eBody), &mreq); err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal([]byte(e2eBody), &preq); err != nil {
		tb.Fatal(err)
	}
	algo, dims, err := validateMapRequest(&mreq)
	if err != nil {
		tb.Fatal(err)
	}
	canon := Canonicalize(algo)
	mw, pw := newMapWork(canon, dims, &mreq), newParetoWork(canon, dims, &preq)
	mres, _, err := mw.search(context.Background(), svc)
	if err != nil {
		tb.Fatal(err)
	}
	pres, _, err := pw.search(context.Background(), svc)
	if err != nil {
		tb.Fatal(err)
	}
	doctoredPi := *mw.toWire(mres).(*cluster.WireResult)
	doctoredPi.Pi = []int64{4611686018427387904, 4611686018427387904, 1}
	doctoredVec := *pw.toWire(pres).(*cluster.ParetoWireResult)
	doctoredVec.Members = append([]cluster.ParetoWireMember(nil), doctoredVec.Members...)
	doctoredVec.Members[0].Vector[1]--
	return svc, [][]byte{
		fillBody(tb, mw, mw.toWire(mres)),
		fillBody(tb, pw, pw.toWire(pres)),
		[]byte(`{"kind":"map","key":"x",` + overflowProblem + `,"dims":1,"result":{}}`),
		fillBody(tb, mw, &doctoredPi),
		fillBody(tb, pw, &doctoredVec),
	}
}

// postFill sends one body to the peer fill route through NewHandler.
func postFill(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, cluster.FillPath, bytes.NewReader(body))
	req.Header.Set(cluster.HopHeader, "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestPeerFillSeeds: the genuine seed fills are stored and every
// doctored one is a counted 400 with nothing cached — so the fuzzer
// below starts from both sides of the revalidation.
func TestPeerFillSeeds(t *testing.T) {
	svc, seeds := peerFillSeeds(t)
	h := NewHandler(svc)
	for i, body := range seeds {
		svc.FlushCache()
		rec := postFill(h, body)
		want := http.StatusBadRequest
		if i < 2 {
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Errorf("seed %d: status %d, want %d (%s)", i, rec.Code, want, rec.Body)
		}
		if cached := svc.CacheLen() > 0; cached != (want == http.StatusOK) {
			t.Errorf("seed %d: cached = %v after status %d", i, cached, rec.Code)
		}
	}
	if n := svc.met.peerFillsRejected.Load(); n != int64(len(seeds)-2) {
		t.Errorf("rejected fills = %d, want %d", n, len(seeds)-2)
	}
}

// FuzzPeerFill posts arbitrary bodies to the one peer fill route, for
// both workload kinds. The route must never panic, must answer 200, 400
// or 413, and must cache nothing unless it answered 200.
func FuzzPeerFill(f *testing.F) {
	svc, seeds := peerFillSeeds(f)
	h := NewHandler(svc)
	for _, body := range seeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		svc.FlushCache()
		rec := postFill(h, body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if n := svc.CacheLen(); n != 0 {
				t.Fatalf("status %d left %d cache entries", rec.Code, n)
			}
		default:
			t.Fatalf("status %d (%s)", rec.Code, rec.Body)
		}
	})
}
