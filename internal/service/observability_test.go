package service

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/jobs"
	"lodim/internal/schedule"
	"lodim/internal/slo"
)

// --- reqTimer unit tests ---------------------------------------------

func TestReqTimerEncoding(t *testing.T) {
	tm := newReqTimer("abc")
	if _, ok := tm.duration(stageDecode); ok {
		t.Error("unset stage reported as ran")
	}
	tm.record(stageDecode, 0) // 0ns stage must still register as "ran"
	if d, ok := tm.duration(stageDecode); !ok || d != 0 {
		t.Errorf("0ns stage: d=%v ok=%v", d, ok)
	}
	tm.record(stageSearch, 1500*time.Microsecond)
	tm.record(stageSearch, 500*time.Microsecond) // accumulates
	if d, ok := tm.duration(stageSearch); !ok || d != 2*time.Millisecond {
		t.Errorf("accumulated search stage = %v ok=%v, want 2ms", d, ok)
	}
	h := tm.timingHeader()
	if !strings.Contains(h, "decode;dur=0.000") || !strings.Contains(h, "search;dur=2.000") {
		t.Errorf("timing header = %q", h)
	}
	var nilTimer *reqTimer
	nilTimer.record(stageDecode, time.Second) // must not panic
	if _, ok := nilTimer.duration(stageDecode); ok {
		t.Error("nil timer reported a stage")
	}
}

// --- WritePrometheus invariants --------------------------------------

// scrapeMetrics renders the metrics and parses every sample line into
// name{labels} → value.
func scrapeMetrics(t *testing.T, m *metrics) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Strip an OpenMetrics exemplar suffix before splitting off the
		// sample value.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// histogramInvariants checks one rendered histogram family: cumulative
// non-decreasing buckets, +Inf bucket equal to _count, and a _sum
// consistent with the recorded durations.
func histogramInvariants(t *testing.T, samples map[string]float64, prefix, labels string, wantCount int64, wantSumS float64) {
	t.Helper()
	sep := ""
	if labels != "" {
		sep = ","
	}
	prev := -1.0
	for _, ub := range latencyBuckets {
		key := fmt.Sprintf("%s_bucket{%s%sle=\"%g\"}", prefix, labels, sep, ub)
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Errorf("bucket %s = %g below previous %g (cumulative le violated)", key, v, prev)
		}
		prev = v
	}
	infKey := fmt.Sprintf("%s_bucket{%s%sle=\"+Inf\"}", prefix, labels, sep)
	inf, ok := samples[infKey]
	if !ok {
		t.Fatalf("missing +Inf bucket %s", infKey)
	}
	if inf < prev {
		t.Errorf("+Inf bucket %g below last finite bucket %g", inf, prev)
	}
	countKey := prefix + "_count"
	sumKey := prefix + "_sum"
	if labels != "" {
		countKey += "{" + labels + "}"
		sumKey += "{" + labels + "}"
	}
	if got := samples[countKey]; got != float64(wantCount) {
		t.Errorf("%s = %g, want %d", countKey, got, wantCount)
	}
	if inf != float64(wantCount) {
		t.Errorf("+Inf bucket %g != count %d", inf, wantCount)
	}
	if got := samples[sumKey]; got < wantSumS-1e-9 || got > wantSumS+1e-9 {
		t.Errorf("%s = %g, want ≈ %g", sumKey, got, wantSumS)
	}
}

func TestWritePrometheusHistograms(t *testing.T) {
	m := &metrics{}
	durations := []time.Duration{500 * time.Microsecond, 30 * time.Millisecond, 3 * time.Second, 20 * time.Second}
	var sum time.Duration
	for _, d := range durations {
		m.observeSearch(d, "")
		m.observeStage(stageDecode, d)
		sum += d
	}
	m.observeStage(stageSearch, time.Millisecond)
	samples := scrapeMetrics(t, m)
	histogramInvariants(t, samples, "mapserve_search_latency_seconds", "", 4, sum.Seconds())
	histogramInvariants(t, samples, "mapserve_stage_duration_seconds", `stage="decode"`, 4, sum.Seconds())
	histogramInvariants(t, samples, "mapserve_stage_duration_seconds", `stage="search"`, 1, 0.001)
	// A 20s observation lands only in +Inf: the last finite bucket must
	// be strictly below it.
	last := samples[fmt.Sprintf("mapserve_search_latency_seconds_bucket{le=\"%g\"}", latencyBuckets[numLatencyBuckets-1])]
	if last != 3 {
		t.Errorf("last finite bucket = %g, want 3 (20s sample must spill to +Inf)", last)
	}
	// Every stage renders a family, even unobserved ones (zero series).
	for _, name := range stageNames {
		key := fmt.Sprintf("mapserve_stage_duration_seconds_count{stage=%q}", name)
		if _, ok := samples[key]; !ok {
			t.Errorf("missing per-stage histogram for %q", name)
		}
	}
}

// TestWritePrometheusExemplars: a traced search observation attaches an
// OpenMetrics exemplar to exactly its bucket line, the snapshot carries
// the same exemplar under the same le key, and the exposition still
// parses with the suffix present.
func TestWritePrometheusExemplars(t *testing.T) {
	m := &metrics{}
	const tid = "deadbeef00000000deadbeef00000000"
	m.observeSearch(40*time.Millisecond, tid)
	m.observeSearch(3*time.Second, "") // untraced → no exemplar
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	var exLines []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, " # {") {
			exLines = append(exLines, line)
		}
	}
	if len(exLines) != 1 {
		t.Fatalf("want exactly 1 exemplar line, got %d: %q", len(exLines), exLines)
	}
	line := exLines[0]
	if !strings.HasPrefix(line, "mapserve_search_latency_seconds_bucket{") {
		t.Errorf("exemplar attached to non-bucket line %q", line)
	}
	if !strings.Contains(line, fmt.Sprintf("# {trace_id=%q} 0.040000000", tid)) {
		t.Errorf("exemplar line %q missing trace id/value", line)
	}

	exs, ok := m.Snapshot()["search_latency_exemplars"].(map[string]any)
	if !ok || len(exs) != 1 {
		t.Fatalf("snapshot search_latency_exemplars = %v", m.Snapshot()["search_latency_exemplars"])
	}
	for bucket, v := range exs {
		ex, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("snapshot exemplar is %T", v)
		}
		if ex["trace_id"] != tid {
			t.Errorf("snapshot exemplar trace_id = %v, want %s", ex["trace_id"], tid)
		}
		if ex["value_s"] != (40 * time.Millisecond).Seconds() {
			t.Errorf("snapshot exemplar value_s = %v, want 0.04", ex["value_s"])
		}
		if !strings.Contains(line, fmt.Sprintf("le=%q", bucket)) {
			t.Errorf("snapshot exemplar bucket %q does not match exemplar line %q", bucket, line)
		}
	}
	scrapeMetrics(t, m) // exposition must stay parseable with the suffix
}

func TestWritePrometheusSearchStatsCounters(t *testing.T) {
	m := &metrics{}
	m.observeSearchStats(nil) // no-op, must not panic
	st := &searchStatsFixture
	m.observeSearchStats(st)
	m.observeSearchStats(st)
	samples := scrapeMetrics(t, m)
	cases := map[string]int64{
		`mapserve_search_pruned_total{rule="orbit"}`:       2 * st.PrunedOrbit,
		`mapserve_search_pruned_total{rule="lower_bound"}`: 2 * st.PrunedLowerBound,
		`mapserve_search_pruned_total{rule="incumbent"}`:   2 * st.PrunedIncumbent,
		"mapserve_search_space_candidates_total":           2 * st.SpaceCandidates,
		"mapserve_search_schedule_candidates_total":        2 * st.ScheduleCandidates,
		"mapserve_search_dependence_rejects_total":         2 * st.DependenceRejects,
		"mapserve_search_cost_levels_total":                2 * st.CostLevels,
		"mapserve_search_inner_searches_total":             2 * st.InnerSearches,
	}
	for key, want := range cases {
		if got := samples[key]; got != float64(want) {
			t.Errorf("%s = %g, want %d", key, got, want)
		}
	}
}

// TestSnapshotPrometheusParity: every metric family rendered by
// WritePrometheus has a Snapshot counterpart and vice versa, per the
// explicit correspondence table — so the two surfaces cannot drift
// silently.
func TestSnapshotPrometheusParity(t *testing.T) {
	m := &metrics{}
	// Seed the gated families so both surfaces render them: the hit
	// ratio requires cacheable traffic, the trace counters a tracer, the
	// cache occupancy a wired cache, the peer families a cluster.
	m.cacheHits.Add(3)
	m.cacheMisses.Add(1)
	m.traceCounters = func() (int64, int64, int64) { return 5, 1, 2 }
	m.cacheStats = func() (int64, int64, int64) { return 4, 2, 4096 }
	m.clustered = true
	m.jobStats = func() jobs.Stats { return jobs.Stats{Submitted: 2, Done: 1, Queued: 1} }
	m.sloStats = func() slo.Snapshot {
		return slo.Snapshot{
			BurnRate: 4,
			Healthy:  false,
			Objectives: []slo.ObjectiveSnapshot{{
				Name:            "availability",
				Target:          0.99,
				Window:          "5m",
				FastWindow:      "1m",
				Burn:            []slo.WindowBurn{{Window: "1m", Burn: 6}, {Window: "5m", Burn: 5}},
				BudgetRemaining: -4,
				Events:          100,
				Bad:             5,
				Breached:        true,
				Breaches:        1,
				Captures:        1,
			}},
		}
	}
	m.tenantStats = func() []cluster.TenantUsage {
		return []cluster.TenantUsage{{Tenant: "acme", Requests: 9, CacheHits: 4, SearchMillis: 120, QueueRejections: 1}}
	}
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	families := map[string]bool{}
	for _, match := range regexp.MustCompile(`(?m)^# TYPE (\S+)`).FindAllStringSubmatch(buf.String(), -1) {
		families[match[1]] = true
	}
	snap := m.Snapshot()

	// family → snapshot keys (nil = deliberately Prometheus-only).
	table := map[string][]string{
		"mapserve_requests_total":                   {"map_requests", "pareto_requests", "conflict_requests", "simulate_requests", "verify_requests", "batch_requests", "jobs_requests", "peer_lookup_requests", "peer_fill_requests", "peer_status_requests", "cluster_status_requests"},
		"mapserve_cache_hits_total":                 {"cache_hits"},
		"mapserve_cache_misses_total":               {"cache_misses"},
		"mapserve_verify_cache_hits_total":          {"verify_cache_hits"},
		"mapserve_verify_cache_misses_total":        {"verify_cache_misses"},
		"mapserve_searches_total":                   {"searches"},
		"mapserve_singleflight_deduped_total":       {"singleflight_deduped"},
		"mapserve_rejected_total":                   {"rejected"},
		"mapserve_timeouts_total":                   {"timeouts"},
		"mapserve_failures_total":                   {"failures"},
		"mapserve_inflight_searches":                {"inflight_searches"},
		"mapserve_queued_requests":                  {"queued_requests"},
		"mapserve_search_latency_seconds":           {"search_latency_count", "search_latency_sum_s", "search_latency_buckets", "search_latency_exemplars"},
		"mapserve_search_pruned_total":              {"search_pruned_orbit", "search_pruned_lower_bound", "search_pruned_incumbent"},
		"mapserve_search_space_candidates_total":    {"search_space_candidates"},
		"mapserve_search_schedule_candidates_total": {"search_schedule_candidates"},
		"mapserve_search_dependence_rejects_total":  {"search_dependence_rejects"},
		"mapserve_search_cost_levels_total":         {"search_cost_levels"},
		"mapserve_search_inner_searches_total":      {"search_inner_searches"},
		"mapserve_cache_hit_ratio":                  {"cache_hit_ratio"},
		"mapserve_cache_entries":                    {"cache_entries"},
		"mapserve_cache_evictions_total":            {"cache_evictions"},
		"mapserve_cache_bytes_estimate":             {"cache_bytes_estimate"},
		"mapserve_peer_forward_total":               {"peer_forward_hit", "peer_forward_miss", "peer_forward_shared", "peer_forward_error"},
		"mapserve_peer_served_total":                {"peer_served_hit", "peer_served_miss", "peer_served_shared"},
		"mapserve_peer_fills_total":                 {"peer_fills_sent", "peer_fills_received", "peer_fills_rejected", "peer_fills_send_error"},
		"mapserve_trace_spans_total":                {"trace_spans"},
		"mapserve_trace_spans_dropped_total":        {"trace_spans_dropped"},
		"mapserve_traces_total":                     {"traces"},
		"mapserve_jobs_total":                       {"jobs_submitted", "jobs_deduped", "jobs_rejected", "jobs_done", "jobs_failed", "jobs_cancelled", "jobs_resumed", "jobs_requeued"},
		"mapserve_jobs_queued":                      {"jobs_queued"},
		"mapserve_jobs_running":                     {"jobs_running"},
		"mapserve_jobs_forwarded_total":             {"jobs_forwarded"},
		"mapserve_slo_burn_rate":                    {"slo_burn_rates"},
		"mapserve_slo_budget_remaining":             {"slo_budget_remaining"},
		"mapserve_slo_breached":                     {"slo_breached"},
		"mapserve_slo_breaches_total":               {"slo_breaches"},
		"mapserve_slo_captures_total":               {"slo_captures"},
		"mapserve_tenant_requests_total":            {"tenant_requests"},
		"mapserve_tenant_cache_hits_total":          {"tenant_cache_hits"},
		"mapserve_tenant_search_milliseconds_total": {"tenant_search_ms"},
		"mapserve_tenant_queue_rejections_total":    {"tenant_queue_rejections"},
	}
	var stageKeys []string
	for _, name := range stageNames {
		stageKeys = append(stageKeys, "stage_"+name+"_count", "stage_"+name+"_sum_s", "stage_"+name+"_buckets")
	}
	table["mapserve_stage_duration_seconds"] = stageKeys

	for family, keys := range table {
		if !families[family] {
			t.Errorf("table family %s not rendered by WritePrometheus", family)
		}
		for _, key := range keys {
			if _, ok := snap[key]; !ok {
				t.Errorf("family %s: snapshot key %q missing", family, key)
			}
		}
		delete(families, family)
	}
	for family := range families {
		t.Errorf("family %s rendered but absent from the parity table — add its Snapshot keys", family)
	}
	covered := map[string]bool{}
	for _, keys := range table {
		for _, k := range keys {
			covered[k] = true
		}
	}
	for key := range snap {
		if !covered[key] {
			t.Errorf("snapshot key %q has no WritePrometheus family in the parity table", key)
		}
	}
}

// TestSnapshotBucketValueParity: the expvar bucket maps and hit ratio
// carry the same values (cumulative, same le keys) as the Prometheus
// exposition — not just the same families.
func TestSnapshotBucketValueParity(t *testing.T) {
	m := &metrics{}
	for _, d := range []time.Duration{200 * time.Microsecond, 40 * time.Millisecond, 3 * time.Second, 30 * time.Second} {
		m.observeSearch(d, "")
		m.observeStage(stageSearch, d)
	}
	m.cacheHits.Add(7)
	m.cacheMisses.Add(3)
	samples := scrapeMetrics(t, m)
	snap := m.Snapshot()

	checkBuckets := func(snapKey, promPrefix, labels string) {
		t.Helper()
		buckets, ok := snap[snapKey].(map[string]int64)
		if !ok {
			t.Fatalf("snapshot %q is %T, want map[string]int64", snapKey, snap[snapKey])
		}
		sep := ""
		if labels != "" {
			sep = ","
		}
		for _, ub := range latencyBuckets {
			le := strconv.FormatFloat(ub, 'g', -1, 64)
			promKey := fmt.Sprintf("%s_bucket{%s%sle=\"%s\"}", promPrefix, labels, sep, le)
			if float64(buckets[le]) != samples[promKey] {
				t.Errorf("%s[%s] = %d, Prometheus %s = %g", snapKey, le, buckets[le], promKey, samples[promKey])
			}
		}
		infKey := fmt.Sprintf("%s_bucket{%s%sle=\"+Inf\"}", promPrefix, labels, sep)
		if float64(buckets["+Inf"]) != samples[infKey] {
			t.Errorf("%s[+Inf] = %d, Prometheus %s = %g", snapKey, buckets["+Inf"], infKey, samples[infKey])
		}
	}
	checkBuckets("search_latency_buckets", "mapserve_search_latency_seconds", "")
	checkBuckets("stage_search_buckets", "mapserve_stage_duration_seconds", `stage="search"`)

	ratio, ok := snap["cache_hit_ratio"].(float64)
	if !ok {
		t.Fatalf("cache_hit_ratio missing from snapshot: %v", snap["cache_hit_ratio"])
	}
	if prom := samples["mapserve_cache_hit_ratio"]; ratio < prom-1e-6 || ratio > prom+1e-6 {
		t.Errorf("cache_hit_ratio %g != Prometheus %g", ratio, prom)
	}
	if _, ok := (&metrics{}).Snapshot()["cache_hit_ratio"]; ok {
		t.Error("cache_hit_ratio rendered with no cacheable traffic (gate lost)")
	}
}

var searchStatsFixture = schedule.SearchStats{
	Engine:             "joint-6.2",
	Workers:            2,
	SpaceCandidates:    20,
	PrunedOrbit:        3,
	PrunedLowerBound:   5,
	PrunedIncumbent:    7,
	InnerSearches:      11,
	ScheduleCandidates: 400,
	DependenceRejects:  300,
	CostLevels:         9,
}
