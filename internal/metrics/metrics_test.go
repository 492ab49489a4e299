package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestWriterExposition(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)
	var b strings.Builder
	w := NewWriter(&b)
	w.Family("reqs_total", "counter", "total requests")
	w.Sample(4, "tenant", `a\b"c`+"\nd", "op", "reach")
	w.Family("silent", "gauge", "a family with no sample renders nothing")
	w.Family("ratio", "gauge", "")
	w.Sample(0.75)
	w.Sample(3e15)
	w.Family("lat_seconds", "histogram", "latency")
	w.Histogram(h, "tenant", "-")
	want := `# HELP reqs_total total requests
# TYPE reqs_total counter
reqs_total{tenant="a\\b\"c\nd",op="reach"} 4
# TYPE ratio gauge
ratio 0.75
ratio 3e+15
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{tenant="-",le="0.5"} 1
lat_seconds_bucket{tenant="-",le="1"} 1
lat_seconds_bucket{tenant="-",le="+Inf"} 2
lat_seconds_sum{tenant="-"} 2.25
lat_seconds_count{tenant="-"} 2
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got < 5.5 || got > 5.6 {
		t.Fatalf("sum = %v", got)
	}
	var b strings.Builder
	w := NewWriter(&b)
	w.Family("lat_seconds", "histogram", "latency")
	w.Histogram(h)
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		`lat_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	if h.counts[0].Load() != 1 {
		t.Fatalf("observation on boundary fell in bucket %v", h.counts)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if diff := b[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

// TestConcurrentUse: eight goroutines observing one histogram lose nothing,
// in the count, the buckets or the sum.
func TestConcurrentUse(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 1000 {
				h.Observe(float64(j % 2))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || h.Sum() != 4000 || h.counts[0].Load() != 4000 || h.counts[1].Load() != 4000 {
		t.Fatalf("lost observations: count %d, sum %v, buckets %d/%d",
			h.Count(), h.Sum(), h.counts[0].Load(), h.counts[1].Load())
	}
}
