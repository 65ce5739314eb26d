package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// compareMain reads two result files (JSON Lines of records, as --out
// writes them) and prints, per workload and metric, each side's median
// and quartiles and the change of the median, judged against the bound
// BENCHMARK.json fixes for end-to-end metrics.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: lodimbench compare BASE.jsonl NEW.jsonl")
		return 2
	}
	var bf benchmarkFile
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(b, &bf); err != nil {
			fmt.Fprintf(stderr, "lodimbench: BENCHMARK.json: %v\n", err)
			return 1
		}
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	sides := make([][]*record, 2)
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "lodimbench: %v\n", err)
			return 1
		}
		sides[i] = recs
		if len(recs) > 0 {
			h := recs[0].Host
			fmt.Fprintf(stdout, "%s: %d runs; host nproc=%d gomaxprocs=%d %s cpu=%q commit=%s\n",
				path, len(recs), h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU, h.Commit)
		}
	}
	if len(sides[0]) > 0 && len(sides[1]) > 0 {
		a, b := sides[0][0].Host, sides[1][0].Host
		if a.CPU != b.CPU || a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS || a.GoVersion != b.GoVersion {
			fmt.Fprintln(stdout, "warning: the two files come from different hosts or toolchains; deltas are not comparable")
		}
	}
	fmt.Fprintf(stdout, "%-16s %-34s %-9s %12s %12s %12s | %12s %12s %12s | %8s %s\n",
		"workload", "metric", "unit", "base q1", "base median", "base q3", "new q1", "new median", "new q3", "delta", "verdict")
	for _, w := range workloads {
		for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
			for _, s := range specs {
				base := values(sides[0], w.name, trace, s.Name)
				cur := values(sides[1], w.name, trace, s.Name)
				if len(base) == 0 || len(cur) == 0 {
					continue
				}
				b1, bm, b3 := quartiles(base)
				n1, nm, n3 := quartiles(cur)
				delta := ratio(nm-bm, bm)
				fmt.Fprintf(stdout, "%-16s %-34s %-9s %12.5g %12.5g %12.5g | %12.5g %12.5g %12.5g | %+7.2f%% %s\n",
					w.name, s.Name, s.Unit, b1, bm, b3, n1, nm, n3, 100*delta, verdict(s, delta, bounds, ratio(b3-b1, bm)))
			}
		}
	}
	return 0
}

// verdict judges a median change against the metric's bound: worse
// beyond the bound is a regression; a change within the base's own
// quartile spread is unresolved rather than a gain.
func verdict(s metricSpec, delta float64, bounds map[string]float64, spread float64) string {
	worse := delta
	if s.Better == "higher" {
		worse = -delta
	}
	bound, ok := bounds[s.Name]
	switch {
	case ok && worse > bound:
		return fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*bound)
	case -worse > spread && -worse > 0:
		return "better"
	case ok:
		return fmt.Sprintf("within bound %.0f%%", 100*bound)
	}
	return ""
}

func values(recs []*record, workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	sort.Float64s(out)
	return out
}

func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}
