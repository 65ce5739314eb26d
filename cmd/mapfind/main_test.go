package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"lodim/internal/cli"
	"lodim/internal/schedule"
	"lodim/internal/uda"
)

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	ferr := f()
	w.Close()
	data, rerr := io.ReadAll(r)
	if ferr != nil {
		t.Fatal(ferr)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(data)
}

func TestTimeoutJointDeadline(t *testing.T) {
	// Large enough that the joint search cannot finish in 1ms; the
	// deadline error must surface so main can exit with status 3.
	err := run2(options{
		algo: "transitive-closure", sizes: "30", machine: "none",
		joint: true, dims: 1, workers: 2, timeout: time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestTimeoutGenerousStillSucceeds(t *testing.T) {
	if err := run2(options{
		algo: "matmul", sizes: "4", s: "1,1,-1", engine: "procedure",
		machine: "none", timeout: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMatmulProcedure(t *testing.T) {
	if err := run("matmul", "4", "1,1,-1", "procedure", "none", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunMatmulILPWithMachine(t *testing.T) {
	if err := run("matmul", "4", "1,1,-1", "ilp", "mesh1", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunTransitiveClosure(t *testing.T) {
	if err := run("transitive-closure", "4", "0,0,1", "procedure", "none", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleProcessor(t *testing.T) {
	if err := run("convolution", "5,2", "empty:2", "procedure", "none", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSONOutput(t *testing.T) {
	if err := run2(options{
		algo: "matmul", sizes: "4", s: "1,1,-1", engine: "procedure",
		machine: "mesh1", json: true,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEmitJSONShape(t *testing.T) {
	// Round-trip the JSON through a decoder to ensure it is well formed
	// and carries the headline numbers.
	algoErr := run2(options{algo: "matmul", sizes: "3", s: "1,1,-1", engine: "ilp", machine: "none", json: true})
	if algoErr != nil {
		t.Fatal(algoErr)
	}
}

func TestRunJointSearch(t *testing.T) {
	if err := run2(options{
		algo: "transitive-closure", sizes: "3", joint: true, dims: 1, workers: 4,
		machine: "none",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJointJSON(t *testing.T) {
	if err := run2(options{
		algo: "matmul", sizes: "3", joint: true, dims: 1, workers: 1,
		machine: "none", json: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsJSONJoint: -stats -json on the paper's matrix-multiplication
// example emits a search_stats object whose pruning counters actually
// fired — the cube is symmetric (orbit rule) and the incumbent cut
// always triggers on later candidates.
func TestStatsJSONJoint(t *testing.T) {
	out := captureStdout(t, func() error {
		return run2(options{
			algo: "matmul", sizes: "4", joint: true, dims: 1, workers: 2,
			machine: "none", json: true, stats: true,
		})
	})
	var res struct {
		SearchStats *schedule.SearchStats `json:"search_stats"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("decode: %v\n%s", err, out)
	}
	st := res.SearchStats
	if st == nil {
		t.Fatalf("no search_stats in output:\n%s", out)
	}
	if st.Engine != "joint-6.2" {
		t.Errorf("engine = %q, want joint-6.2", st.Engine)
	}
	if st.Pruned() < 1 || st.PrunedOrbit < 1 || st.PrunedIncumbent < 1 {
		t.Errorf("pruning counters empty: %+v", st)
	}
	if st.SpaceCandidates < 1 || st.ScheduleCandidates < 1 || st.CostLevels < 1 {
		t.Errorf("effort counters empty: %+v", st)
	}
	// matmul's ladder rejects every Π with a non-positive entry.
	if st.DependenceRejects < 1 || st.DependenceRejects >= st.ScheduleCandidates {
		t.Errorf("dependence_rejects = %d of %d schedule candidates", st.DependenceRejects, st.ScheduleCandidates)
	}
}

// TestStatsText: the one-line text summary appears with -stats, and
// the ILP engine (which predates stats collection) degrades gracefully.
func TestStatsText(t *testing.T) {
	out := captureStdout(t, func() error {
		return run2(options{
			algo: "matmul", sizes: "4", s: "1,1,-1", engine: "procedure",
			machine: "none", stats: true,
		})
	})
	if !strings.Contains(out, "search stats: engine=procedure-5.1") {
		t.Errorf("no stats line in text output:\n%s", out)
	}
	if !strings.Contains(out, " dep_rejects=") {
		t.Errorf("stats line lacks the ΠD > 0 reject count:\n%s", out)
	}
	// The ILP engine either reports nothing (pure ILP path) or falls
	// back to Procedure 5.1 and reports that engine's stats; both print
	// a stats line.
	out = captureStdout(t, func() error {
		return run2(options{
			algo: "matmul", sizes: "3", s: "1,1,-1", engine: "ilp",
			machine: "none", stats: true,
		})
	})
	if !strings.Contains(out, "search stats:") {
		t.Errorf("ILP stats line missing:\n%s", out)
	}
	// Without -stats the line stays out.
	out = captureStdout(t, func() error {
		return run2(options{
			algo: "matmul", sizes: "4", s: "1,1,-1", engine: "procedure", machine: "none",
		})
	})
	if strings.Contains(out, "search stats:") {
		t.Errorf("stats line printed without -stats:\n%s", out)
	}
}

func TestRunJointErrors(t *testing.T) {
	// Array dimensionality out of range must surface.
	if err := run2(options{algo: "matmul", sizes: "3", joint: true, dims: 3, machine: "none"}); err == nil {
		t.Error("dims = n accepted")
	}
	// Unreachable cost ceiling reports no schedule.
	if err := run2(options{algo: "matmul", sizes: "3", joint: true, dims: 1, maxCost: 2, machine: "none"}); err == nil {
		t.Error("maxcost too low accepted")
	}
}

func TestRunAlgoFile(t *testing.T) {
	f := t.TempDir() + "/algo.json"
	doc := `{"name":"stencil","bounds":[5,5],"dependencies":[[1,0],[1,1],[1,-1]]}`
	if err := os.WriteFile(f, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run2(options{algoFile: f, s: "0,1", engine: "procedure", machine: "none"}); err != nil {
		t.Fatal(err)
	}
	// Missing file and malformed content.
	if err := run2(options{algoFile: f + ".missing", s: "0,1"}); err == nil {
		t.Error("missing file accepted")
	}
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"bounds":[0]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run2(options{algoFile: bad, s: "0,1"}); err == nil {
		t.Error("malformed algorithm accepted")
	}
}

func TestRunStatementFrontEnd(t *testing.T) {
	if err := run2(options{
		stmt: "C[i,j] = C[i,j] + A[i,k]*B[k,j]", vars: "i,j,k",
		sizes: "4,4,4", s: "1,1,-1", engine: "procedure", machine: "none",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunStatementBitExpand(t *testing.T) {
	if err := run2(options{
		stmt: "y[i] = y[i] + h[k]*x[i-k]", vars: "i,k",
		sizes: "3,2", bits: 2, s: "1,0,0,0;0,1,0,0", engine: "procedure", machine: "none",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunStatementErrors(t *testing.T) {
	if err := run2(options{stmt: "A[i] = A[i-1]", sizes: "4", s: "empty:1"}); err == nil {
		t.Error("missing -vars accepted")
	}
	if err := run2(options{stmt: "A[i] = A[i-1]", vars: "i,j", sizes: "4", s: "empty:2"}); err == nil {
		t.Error("size/vars mismatch accepted")
	}
	if err := run2(options{stmt: "A[i] = A[j", vars: "i", sizes: "4", s: "empty:1"}); err == nil {
		t.Error("parse error swallowed")
	}
	if err := run2(options{stmt: "A[i,j] = A[j,i]", vars: "i,j", sizes: "3,3", s: "empty:2"}); err == nil {
		t.Error("non-uniform accepted")
	}
}

func TestRunVerifyAcceptsWinner(t *testing.T) {
	// The search winner must satisfy its own independent certificate, in
	// both engines and in the joint search.
	for _, o := range []options{
		{algo: "matmul", sizes: "4", s: "1,1,-1", engine: "procedure", machine: "none", verify: true},
		{algo: "matmul", sizes: "3", s: "1,1,-1", engine: "ilp", machine: "none", verify: true},
		{algo: "transitive-closure", sizes: "3", joint: true, dims: 1, workers: 2, machine: "none", verify: true},
		{algo: "matmul", sizes: "3", s: "1,1,-1", engine: "procedure", machine: "none", verify: true, json: true},
	} {
		if err := run2(o); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name                            string
		algo, sizes, s, engine, machine string
	}{
		{"bad algo", "nope", "", "1,1,-1", "procedure", "none"},
		{"bad sizes", "matmul", "x", "1,1,-1", "procedure", "none"},
		{"bad S", "matmul", "4", "1,1;1", "procedure", "none"},
		{"bad engine", "matmul", "4", "1,1,-1", "quantum", "none"},
		{"bad machine", "matmul", "4", "1,1,-1", "procedure", "warp"},
		{"cost too low", "matmul", "4", "1,1,-1", "procedure", "none"},
	}
	for _, c := range cases {
		maxCost := int64(0)
		if c.name == "cost too low" {
			maxCost = 2
		}
		if err := run(c.algo, c.sizes, c.s, c.engine, c.machine, maxCost); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestRunParetoJSON: -pareto -verify -json emits the whole certified
// front in pinned order with a valid certificate and an in-range best
// index; the time-optimal head matches the single-winner joint search.
func TestRunParetoJSON(t *testing.T) {
	out := captureStdout(t, func() error {
		return run2(options{
			algo: "matmul", sizes: "3", dims: 1, workers: 2, machine: "none",
			json: true, pareto: true, paretoSlack: 2, verify: true,
		})
	})
	var res struct {
		Front []struct {
			TotalTime  int64 `json:"total_time"`
			Processors int64 `json:"processors"`
		} `json:"front"`
		Best        int   `json:"best"`
		TimeBound   int64 `json:"time_bound"`
		Certificate *struct {
			Valid         bool `json:"valid"`
			NonDomination bool `json:"non_domination"`
		} `json:"certificate"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, out)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if res.Best < 0 || res.Best >= len(res.Front) {
		t.Errorf("best index %d out of range", res.Best)
	}
	if res.Certificate == nil || !res.Certificate.Valid || !res.Certificate.NonDomination {
		t.Errorf("certificate missing or invalid: %+v", res.Certificate)
	}
	jres, err := schedule.FindJointMapping(mustAlgo(t, "matmul", "3"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Front[0].TotalTime != jres.Time {
		t.Errorf("pareto head at t=%d, joint optimum t=%d", res.Front[0].TotalTime, jres.Time)
	}
	if res.TimeBound != jres.Time+2 {
		t.Errorf("time_bound = %d, want %d+2", res.TimeBound, jres.Time)
	}
}

// TestRunParetoSelectionErrors: mode/knob mismatches are rejected
// before any search runs.
func TestRunParetoSelectionErrors(t *testing.T) {
	cases := []options{
		{algo: "matmul", sizes: "3", dims: 1, pareto: true, paretoMode: "best"},
		{algo: "matmul", sizes: "3", dims: 1, pareto: true, paretoLex: "time"},
		{algo: "matmul", sizes: "3", dims: 1, pareto: true, paretoMode: "lex", paretoWeights: "time=1"},
		{algo: "matmul", sizes: "3", dims: 1, pareto: true, paretoMode: "lex", paretoLex: "latency"},
		{algo: "matmul", sizes: "3", dims: 1, pareto: true, paretoMode: "weighted", paretoWeights: "time"},
		{algo: "matmul", sizes: "3", dims: 1, pareto: true, paretoMode: "weighted", paretoWeights: "time=x"},
	}
	for _, o := range cases {
		o.machine = "none"
		o.workers = 1
		o.json = true
		if err := run2(o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

// TestRunParetoLexText: the text renderer marks the lex-selected
// member and lists every front member.
func TestRunParetoLexText(t *testing.T) {
	out := captureStdout(t, func() error {
		return run2(options{
			algo: "matmul", sizes: "3", dims: 1, workers: 1, machine: "none",
			pareto: true, paretoSlack: 2, paretoMode: "lex", paretoLex: "processors,time",
		})
	})
	if !strings.Contains(out, "pareto front:") || !strings.Contains(out, "* [") {
		t.Errorf("text output lacks the front listing or best marker:\n%s", out)
	}
}

// mustAlgo builds a named algorithm for cross-checks.
func mustAlgo(t *testing.T, name, sizes string) *uda.Algorithm {
	t.Helper()
	szs, err := cli.ParseSizes(sizes)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := cli.Algorithm(name, szs)
	if err != nil {
		t.Fatal(err)
	}
	return algo
}
