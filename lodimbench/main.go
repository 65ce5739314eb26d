// Command lodimbench is the lodim benchmark: it starts mapserve
// services in-process on loopback with cmd/mapserve's production
// defaults, drives them with a closed and an open loop over problems
// from the committed corpus, checks every answer against the corpus
// oracle, and prints every metric by name with its unit. The last line
// of standard output is one JSON object with the run's result.
//
// Run it from the repository root (see README.md beside this file):
//
//	bash lodimbench/run.sh --workload map-search --seed 1 --seconds 50 --trace 0
//	bash lodimbench/run.sh compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec names one reported metric; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricSpec{
	{"throughput_rps", "req/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"open_p99_ms", "ms", "lower"},
	{"error_ratio", "ratio", "lower"},
	{"setup_s", "s", "lower"},
	{"mem_peak_mb", "MB", "lower"},
}

var perLayer = func() []metricSpec {
	l := []metricSpec{
		{"client.rtt_us", "us", "lower"},
		{"http.handler_us.map", "us", "lower"},
		{"http.handler_us.pareto", "us", "lower"},
		{"http.handler_us.verify", "us", "lower"},
		{"http.self_us.map", "us", "lower"},
		{"http.resp_bytes", "bytes/req", "lower"},
		{"service.map_hit_us", "us", "lower"},
		{"service.canonicalize_us", "us", "lower"},
		{"service.pareto_us", "us", "lower"},
		{"service.verify_us", "us", "lower"},
		{"service.cache_hit_ratio", "ratio", "higher"},
		{"service.searches", "1/req", "lower"},
		{"service.singleflight_shared", "1/req", "higher"},
		{"cluster.peer_lookup_us", "us", "lower"},
		{"cluster.peer_fill_us", "us", "lower"},
		{"cluster.forwards", "1/req", "lower"},
		{"cluster.fills", "1/req", "lower"},
		{"cluster.peer_hit_ratio", "ratio", "higher"},
		{"schedule.joint_ms", "ms", "lower"},
		{"schedule.pareto_ms", "ms", "lower"},
		{"schedule.schedule_candidates", "count/search", "lower"},
		{"schedule.space_candidates", "count/search", "lower"},
		{"schedule.cost_levels", "count/search", "lower"},
		{"schedule.candidates_per_ms", "1/ms", "higher"},
		{"schedule.pruned_ratio", "ratio", "higher"},
		{"schedule.hnf_incremental_ratio", "ratio", "higher"},
		{"conflict.decide_us", "us", "lower"},
	}
	for _, m := range conflictMethods {
		l = append(l, metricSpec{"conflict.method." + m, "ratio", "higher"})
	}
	return append(l,
		metricSpec{"verify.certify_us", "us", "lower"},
		metricSpec{"verify.pareto_certify_ms", "ms", "lower"},
		metricSpec{"intmat.hnf_ns", "ns", "lower"},
		metricSpec{"intmat.det_ns", "ns", "lower"},
		metricSpec{"go.alloc_bytes_per_req", "bytes/req", "lower"},
		metricSpec{"go.gc_cycles_per_kreq", "1/kreq", "lower"},
		metricSpec{"trace.overhead_rps", "req/s", "higher"},
		metricSpec{"trace.overhead_ratio", "ratio", "higher"},
	)
}()

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one line of a result file: the result plus what it was
// measured on and the detail behind it.
type record struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    int            `json:"trace"`
	Host     fingerprint    `json:"host"`
	Result   result         `json:"result"`
	Detail   map[string]any `json:"detail"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == warmArg {
		return spinWarm()
	}
	fs := flag.NewFlagSet("lodimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: map-hit, map-search or cluster-session")
	seed := fs.Uint64("seed", 1, "seed fixing the problem order and axis permutations")
	seconds := fs.Int("seconds", 50, "measured seconds: 40% closed loop, 60% open loop (traced runs: half untraced, half traced)")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = the traced run's per-layer metrics")
	out := fs.String("out", "", "append this run's record, with the host fingerprint, to this JSON Lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "lodimbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	stopWarm := keepWarm()
	defer stopWarm()
	rec, err := measure(ctx, w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "lodimbench: %s: %v\n", w.name, err)
		return 1
	}
	rec.Seconds = *seconds
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "lodimbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "lodimbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure runs one workload: set-up (setupReps times), then either the
// closed and open loops (end-to-end) or an untraced and a traced closed
// loop plus the per-layer replay.
func measure(ctx context.Context, w *workload, seed uint64, dur time.Duration, traced bool, stdout io.Writer) (*record, error) {
	mem := startMemSampler()
	defer mem.finish()
	b := &bench{seed: seed, spans: &spanLog{}, oracle: newOracle()}
	var next segmenter
	var release func()
	var setups []float64
	reps := setupReps
	if traced {
		reps = 1
	}
	for k := 0; k < reps; k++ {
		start := time.Now()
		probs, err := loadProblems(manifestPath)
		if err != nil {
			return nil, err
		}
		b.probs = probs
		next, release, err = w.setup(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < reps-1 {
			release()
		}
	}
	defer release()
	host := hostFingerprint()
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d %s cpu=%q commit=%s\n", host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPU, host.Commit)
	rec := &record{Workload: w.name, Seed: seed, Host: host, Detail: map[string]any{}}
	if traced {
		rec.Trace = 1
	}
	// The open loop gets the larger share: its p99 rests on the rarer
	// samples.
	closedDur := dur * 2 / 5
	half := dur / 2
	opRate := w.rate / float64(w.reqsPerOp)
	var phases []*phaseResult
	var self map[string]float64
	metricsOut := map[string]float64{}
	if !traced {
		closed, err := loop(ctx, next, "closed", closedDur, minSamples(0.99), 0, b.spans)
		if err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		open, err := loop(ctx, next, "open", dur-closedDur, minSamples(0.99), opRate, b.spans)
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		phases = []*phaseResult{closed, open}
		cl, op := sorted(closed.rec.lats), sorted(open.rec.lats)
		p99, err := tailPercentile(cl, 0.99)
		if err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		op99, err := openP99(open.rec.lats)
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		metricsOut["throughput_rps"] = float64(len(cl)) / closed.measured.Seconds()
		metricsOut["latency_p50_ms"] = percentile(cl, 0.5)
		metricsOut["latency_p99_ms"] = p99
		metricsOut["open_p99_ms"] = op99
		late := sorted(open.rec.late)
		rec.Detail["closed_samples"] = len(cl)
		rec.Detail["open_samples"] = len(op)
		rec.Detail["open_offered_rps"] = w.rate
		rec.Detail["open_achieved_rps"] = float64(len(op)+open.rec.failures) / open.measured.Seconds()
		rec.Detail["open_p50_ms"] = percentile(op, 0.5)
		rec.Detail["generator_late_p50_ms"] = percentile(late, 0.5)
		rec.Detail["generator_late_p99_ms"] = percentile(late, 0.99)
		rec.Detail["setup_runs_s"] = setups
		fmt.Fprintf(stdout, "closed loop: %d requests in %.3fs; p99 from %d samples, %d beyond it\n",
			len(cl), closed.measured.Seconds(), len(cl), len(cl)-1-rank(len(cl), 0.99))
		fmt.Fprintf(stdout, "open loop: offered %.0f req/s, achieved %.1f req/s, %d samples; generator late p50 %.3f ms, p99 %.3f ms\n",
			w.rate, rec.Detail["open_achieved_rps"], len(op), rec.Detail["generator_late_p50_ms"], rec.Detail["generator_late_p99_ms"])
	} else {
		alloc0, gc0 := runtimeCounters()
		plain, err := loop(ctx, next, "untraced", half, 0, 0, b.spans)
		if err != nil {
			return nil, fmt.Errorf("untraced loop: %w", err)
		}
		alloc1, gc1 := runtimeCounters()
		b.spans.on.Store(true)
		tr, err := loop(ctx, next, "traced", half, 0, 0, b.spans)
		b.spans.on.Store(false)
		if err != nil {
			return nil, fmt.Errorf("traced loop: %w", err)
		}
		phases = []*phaseResult{plain, tr}
		lr, err := replay(ctx, tr, b.spans.take())
		if err != nil {
			return nil, err
		}
		metricsOut = lr.metrics
		reqs := float64(plain.rec.attempts)
		metricsOut["go.alloc_bytes_per_req"] = (alloc1 - alloc0) / reqs
		metricsOut["go.gc_cycles_per_kreq"] = (gc1 - gc0) * 1000 / reqs
		plainRPS := float64(len(plain.rec.lats)) / plain.measured.Seconds()
		tracedRPS := float64(len(tr.rec.lats)) / tr.measured.Seconds()
		metricsOut["trace.overhead_rps"] = tracedRPS - plainRPS
		metricsOut["trace.overhead_ratio"] = ratio(tracedRPS-plainRPS, plainRPS)
		rec.Detail["untraced_rps"] = plainRPS
		rec.Detail["traced_rps"] = tracedRPS
		self = lr.self
		rec.Detail["self_us_per_req"] = self
		rec.Detail["setup_runs_s"] = setups
	}

	attempted, failed := 0, 0
	var errs []string
	cache := map[string]int{}
	for _, p := range phases {
		attempted += p.rec.attempts
		failed += p.rec.failures
		for _, e := range p.rec.errs {
			errs = append(errs, e.Error())
		}
		for k, v := range p.rec.cache {
			cache[k] += v
		}
	}
	certified, certErrs := b.oracle.certify(ctx)
	failed += len(certErrs)
	for _, e := range certErrs {
		errs = append(errs, e.Error())
	}
	rec.Detail["certified_mappings"] = certified
	rec.Detail["cache_dispositions"] = cache
	if len(errs) > 0 {
		rec.Detail["errors"] = errs
	}
	fmt.Fprintf(stdout, "oracle: %d attempted, %d failed or wrong, %d distinct map answers recertified\n", attempted, failed, certified)
	for _, e := range errs {
		fmt.Fprintf(stdout, "  error: %s\n", e)
	}

	peak := mem.finish()
	if !traced {
		metricsOut["setup_s"] = median(setups)
		metricsOut["mem_peak_mb"] = peak
		// The rule-of-succession estimate: never 0, so two runs compare
		// as a ratio; the raw count is in "failed".
		metricsOut["error_ratio"] = float64(failed+1) / float64(attempted+2)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	rec.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, s := range specs {
		v, ok := metricsOut[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		rec.Result.Metrics[s.Name] = value{Value: v, Unit: s.Unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", s.Name, v, s.Unit)
	}
	layers := make([]string, 0, len(self))
	for k := range self {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	for _, k := range layers {
		fmt.Fprintf(stdout, "self time %-8s %12.2f us/req\n", k, self[k])
	}
	return rec, nil
}

func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("result file: %w", err)
	}
	return errors.Join(f.Close())
}
