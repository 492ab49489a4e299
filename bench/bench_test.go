package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	log.SetOutput(io.Discard) // the server logs every recovery
	os.Exit(m.Run())
}

func tinyOptions(t *testing.T) runOptions {
	return runOptions{seed: 7, seconds: 0.01, setups: 1, outdir: t.TempDir()}
}

// TestSmoke runs every workload at tiny op counts, untraced once and traced
// twice: every catalogued metric is there with its unit, every layer shows a
// non-zero metric, the traced counts repeat exactly, and a cold op's span
// self times add up to its wall time.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := workloads[i].tiny()
		t.Run(w.name, func(t *testing.T) {
			o := tinyOptions(t)
			rec, err := runUntraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Fatalf("%d of %d operations failed: %v", rec.Failed, rec.Attempted, rec.Failures)
			}
			checkMetrics(t, rec, endToEnd)
			for _, m := range endToEnd {
				if rec.Metrics[m.name].Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics are never 0", m.name, rec.Metrics[m.name].Value)
				}
			}

			first, err := runTraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Correct {
				t.Fatalf("traced: %d of %d checks failed: %v", first.Failed, first.Attempted, first.Failures)
			}
			checkMetrics(t, first, perLayer)
			for _, layer := range layers {
				if !layerIsLive(first, layer) {
					t.Errorf("layer %s has no non-zero metric", layer)
				}
			}
			checkColdOpSelfTimes(t, filepath.Join(o.outdir, "trace-"+w.name+".jsonl"), first.Diag["cold_op_wall_ms"][0])

			second, err := runTraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range perLayer {
				if m.exact && first.Metrics[m.name].Value != second.Metrics[m.name].Value {
					t.Errorf("%s is a count of a sequential run but read %v then %v", m.name, first.Metrics[m.name].Value, second.Metrics[m.name].Value)
				}
			}
		})
	}
}

func checkMetrics(t *testing.T, rec *record, defs []metricDef) {
	t.Helper()
	if len(rec.Metrics) != len(defs) {
		t.Errorf("run reports %d metrics, catalogue has %d", len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		got, ok := rec.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		} else if got.Unit != d.unit {
			t.Errorf("metric %s has unit %q, catalogue says %q", d.name, got.Unit, d.unit)
		}
	}
}

func layerIsLive(rec *record, layer string) bool {
	for name, m := range rec.Metrics {
		if strings.HasPrefix(name, layer+".") && m.Value != 0 {
			return true
		}
	}
	return false
}

// checkColdOpSelfTimes reads the trace file back and compares the first cold
// op's summed self times with the wall time the harness took around it.
func checkColdOpSelfTimes(t *testing.T, path string, wallMS float64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	var selfNS int64
	for name, st := range selfTimes(spans, opCold) {
		if name == "" {
			t.Error("a span was left unnamed")
		}
		selfNS += st.selfNS
	}
	ops := len(durations(spans, opCold))
	if ops == 0 {
		t.Fatal("trace has no cold op")
	}
	perOp := float64(selfNS) / 1e6 / float64(ops)
	if math.Abs(perOp-wallMS)/wallMS > 0.05 {
		t.Errorf("cold op self times sum to %.3f ms, its wall time was %.3f ms", perOp, wallMS)
	}
}

// TestSelftest: with one expected answer and one expected abstract size
// corrupted, a run must report failures.
func TestSelftest(t *testing.T) {
	for _, name := range []string{"cold-dc", "serve-churn"} {
		o := tinyOptions(t)
		o.selftest = true
		rec, err := runUntraced(findWorkload(name).tiny(), o)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failed == 0 || rec.Correct {
			t.Errorf("%s: a corrupted reference went unnoticed (%d attempted)", name, rec.Attempted)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// op(0..100) { a(10..40) { b(20..30) } a(50..70) }, then another op.
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Op: 1, Name: "b", Start: 20, End: 30},
		{ID: 4, Parent: 1, Op: 1, Name: "a", Start: 50, End: 70},
		{ID: 5, Parent: 0, Op: 5, Name: "other", Start: 100, End: 130},
		{ID: 6, Parent: 5, Op: 5, Name: "a", Start: 110, End: 115},
	}
	got := selfTimes(spans, "op")
	want := map[string]selfStat{"op": {50, 1}, "a": {40, 2}, "b": {10, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	var sum int64
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
		sum += got[name].selfNS
	}
	if sum != 100 {
		t.Errorf("self times of the op sum to %d, its span is 100", sum)
	}
	if all := selfTimes(spans, ""); all["a"] != (selfStat{45, 3}) {
		t.Errorf("over all ops a = %+v, want {45 3}", all["a"])
	}

	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("")
	tr.endAs(inner, "inner")
	tr.end(outer)
	if s := tr.spans[1]; s.Parent != 1 || s.Op != 1 || s.Name != "inner" || s.End < s.Start {
		t.Errorf("nested span recorded as %+v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, "unchanged"},
		{lower, steady, []float64{115, 116, 114, 115, 115}, "REGRESSED"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "improved"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "REGRESSED"},
		{lower, steady, []float64{80, 120, 100, 90, 110}, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.name, c.a, c.b, got, c.want)
		}
	}
}

// TestContract keeps BENCHMARK.json and the catalogue in spec.go the same,
// and inside the limits the accepting driver enforces.
func TestContract(t *testing.T) {
	want := contractJSON()
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run . -contract > ../BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.name] || len(m.name) > 64 || len(m.unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %q: better = %q", m.name, m.better)
		}
		if m.bound > 0.25 {
			t.Errorf("metric %q: bound %v over 0.25", m.name, m.bound)
		}
		layer, _, _ := strings.Cut(m.name, ".")
		if strings.Contains(m.name, ".") && !slices.Contains(layers, layer) {
			t.Errorf("metric %q names no layer of the module", m.name)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}
