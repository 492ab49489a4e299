package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRuns loads a JSONL file of run records (what -append writes).
func readRuns(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// samplesOf collects one metric of one workload over a set of untraced
// runs: one value per run, or the per-round values when the set holds a
// single run (so a lone run still has a spread).
func samplesOf(runs []record, workload, metric string) []float64 {
	var vals, rounds []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
			rounds = m.Rounds
		}
	}
	if len(vals) == 1 && len(rounds) > 1 {
		return rounds
	}
	return vals
}

// verdict applies a metric's bound to two sets of samples. A pair whose
// spread on either side exceeds the bound is unresolved: the benchmark
// cannot tell at that resolution, which is not the same as unchanged.
func verdict(m metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if m.better == "higher" {
		worse = (ma - mb) / ma
	}
	switch {
	case worse > m.bound:
		return "REGRESSED"
	case spread(a) > m.bound || spread(b) > m.bound:
		return "unresolved"
	case -worse > m.bound:
		return "improved"
	default:
		return "unchanged"
	}
}

// compareFiles prints one row per (metric, workload) present in both files
// and reports whether any pair regressed, or any run failed an answer check.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	for _, r := range append(append([]record(nil), a...), b...) {
		if !r.Correct {
			fmt.Fprintf(w, "FAILED RUN  %s seed %d: %d of %d operations failed\n", r.Workload, r.Env.Seed, r.Failed, r.Attempted)
			regressed = true
		}
	}
	fmt.Fprintf(w, "%-14s %-16s %5s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "bound", "A median", "A q1..q3", "B median", "B q1..q3", "B vs A", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			sa, sb := samplesOf(a, wl.name, m.name), samplesOf(b, wl.name, m.name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			v := verdict(m, sa, sb)
			regressed = regressed || v == "REGRESSED"
			a1, a2, a3 := quartiles(sa)
			b1, b2, b3 := quartiles(sb)
			fmt.Fprintf(w, "%-14s %-16s %4.0f%% %12.4f %25s %12.4f %25s %+7.1f%%  %s\n",
				wl.name, m.name, 100*m.bound, a2, fmt.Sprintf("%.4f..%.4f", a1, a3),
				b2, fmt.Sprintf("%.4f..%.4f", b1, b3), 100*(b2-a2)/a2, v)
		}
	}
	return regressed, nil
}
