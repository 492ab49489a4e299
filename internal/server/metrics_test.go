package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bonsai"
	"bonsai/internal/netgen"
)

// scrapeText renders /metrics in process.
func scrapeText(s *Server) string {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestMetricsScrapeRacingCloseLeavesNoSeries: a series exists only while the
// registry holds its tenant. Scrapes that race the tenant's DELETE may still
// name it (they began while it was held), but once the DELETE has returned
// and they have finished, no scrape does.
func TestMetricsScrapeRacingCloseLeavesNoSeries(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const scrapers = 2
	for round := 0; round < 3000; round++ {
		if _, err := s.reg.open("x", netgen.Fattree(4, netgen.PolicyShortestPath)); err != nil {
			t.Fatal(err)
		}
		var deleted atomic.Bool
		var wg sync.WaitGroup
		for range scrapers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !deleted.Load() {
					scrapeText(s)
				}
			}()
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/tenants/x", nil))
		deleted.Store(true)
		wg.Wait()
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: DELETE answered %d", round, rec.Code)
		}
		if exp := scrapeText(s); strings.Contains(exp, `tenant="x"`) {
			t.Fatalf("round %d: the closed tenant's series outlive it:\n%s", round, grepLines(exp, `tenant="x"`))
		}
	}
}

// sampleValue is the value of the one sample whose name and labels are key.
func sampleValue(t *testing.T, exp, key string) float64 {
	t.Helper()
	for _, line := range strings.Split(exp, "\n") {
		if v, ok := strings.CutPrefix(line, key+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", key)
	return 0
}

// TestMetricsAdoptionRatioSumsReports: bonsai_adoption_ratio is adopted /
// (adopted + invalidated) over every /apply and /replay report of the
// tenant's life, not the current snapshot's adopted count over a lifetime
// invalidated count. A link down then up on a compressed Fattree(4) adopts
// 6 and invalidates 2, then adopts 6 and invalidates 0: 12/14.
func TestMetricsAdoptionRatioSumsReports(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	openFattree(t, c, "ft4", 4)
	if _, err := c.Compress(ctx, "ft4", bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	l := netgen.Fattree(4, netgen.PolicyShortestPath).Links[0]
	link := []bonsai.LinkRef{{A: l.A, B: l.B}}
	var adopted, invalidated int
	for _, d := range []bonsai.Delta{{LinkDown: link}, {LinkUp: link}} {
		rep, err := c.Apply(ctx, "ft4", d)
		if err != nil {
			t.Fatal(err)
		}
		adopted += rep.Adopted
		invalidated += rep.Invalidated
	}
	if adopted != 12 || invalidated != 2 {
		t.Fatalf("reports summed to adopted %d, invalidated %d; the scenario expects 12 and 2", adopted, invalidated)
	}
	exp := scrapeText(s)
	if got := sampleValue(t, exp, `bonsai_invalidated_total{tenant="ft4"}`); got != 2 {
		t.Errorf("bonsai_invalidated_total = %v, want 2", got)
	}
	st, err := c.Stats(ctx, "ft4")
	if err != nil {
		t.Fatal(err)
	}
	if got := sampleValue(t, exp, `bonsai_adopted_total{tenant="ft4"}`); got != float64(st.Cache.Adopted) {
		t.Errorf("bonsai_adopted_total = %v, /stats says %d", got, st.Cache.Adopted)
	}
	if got := sampleValue(t, exp, `bonsai_adoption_ratio{tenant="ft4"}`); math.Abs(got-12.0/14) > 1e-9 {
		t.Errorf("bonsai_adoption_ratio = %v, want 12/14 = %v", got, 12.0/14)
	}
}

// exposureShape reduces an exposition to its shape: the TYPE lines in order,
// then every sample's name and labels, sorted, with the values dropped.
func exposureShape(exp string) string {
	var types, keys []string
	for _, line := range strings.Split(strings.TrimSpace(exp), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			types = append(types, line)
		case !strings.HasPrefix(line, "#"):
			keys = append(keys, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	slices.Sort(keys)
	return strings.Join(append(types, keys...), "\n") + "\n"
}

// metricsShapeScenario drives one durable tenant through every operation,
// fills a 429 and a 503, asks for a tenant nobody opened and one that was
// closed, then restarts the daemon; it returns the shape of /metrics before
// and after the restart.
func metricsShapeScenario(t *testing.T) string {
	ctx := context.Background()
	cfg := Config{DataDir: t.TempDir(), GlobalBudget: 64 << 20, MaxQueriesPerTenant: 1, ApplyQueueDepth: 1}
	s1 := New(cfg)
	t.Cleanup(s1.Drain)
	hs1 := httptest.NewServer(s1)
	defer hs1.Close()
	c := NewClient(hs1.URL, WithRetries(0))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	must(c.OpenNetwork(ctx, "ft", net))
	must(c.OpenNetwork(ctx, "gone", net))
	must(c.Close(ctx, "gone"))
	_, err := c.Tenants(ctx)
	must(err)
	_, err = c.Compress(ctx, "ft", bonsai.ClassSelector{})
	must(err)
	l0, l1 := net.Links[0], net.Links[1]
	_, err = c.Apply(ctx, "ft", bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: l0.A, B: l0.B}}})
	must(err)
	flaps := fmt.Sprintf(`{"link_up":[{"a":%q,"b":%q}]}`+"\n"+`{"link_down":[{"a":%q,"b":%q}]}`+"\n", l0.A, l0.B, l1.A, l1.B)
	_, err = c.Replay(ctx, "ft", strings.NewReader(flaps), 0, 0)
	must(err)

	// A 503: two writes admitted behind the held write lock, a third bounces.
	tn, err := s1.reg.get("ft")
	must(err)
	tn.writeMu.Lock()
	up := bonsai.Delta{LinkUp: []bonsai.LinkRef{{A: l1.A, B: l1.B}}}
	results := make(chan error, 2)
	for i := 1; i <= 2; i++ {
		go func() {
			_, err := c.Apply(ctx, "ft", up)
			results <- err
		}()
		waitUntil(t, "a write to be admitted", func() bool { return len(tn.writes) == i })
	}
	if _, err := c.Apply(ctx, "ft", up); StatusCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %v", err)
	}
	tn.writeMu.Unlock()
	must(<-results)
	must(<-results)

	_, err = c.CompressStream(ctx, "ft", bonsai.ClassSelector{}, func(bonsai.ClassResult) {})
	must(err)
	routes, err := c.Routes(ctx, "ft", "10.0.0.0/24")
	must(err)
	_, err = c.Reach(ctx, "ft", routes.Routes[0].Router, routes.Dest, false)
	must(err)
	_, err = c.Roles(ctx, "ft", bonsai.RolesRequest{})
	must(err)
	_, err = c.Verify(ctx, "ft", bonsai.VerifyRequest{MaxClasses: 2})
	must(err)
	_, err = c.Stats(ctx, "ft")
	must(err)

	// A 429: the one query slot is held.
	must(tn.acquire(tn.queries, ErrQueryBusy))
	if _, err := c.Roles(ctx, "ft", bonsai.RolesRequest{}); StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %v", err)
	}
	<-tn.queries
	if _, err := c.Reach(ctx, "nobody", "edge-0-0", "10.0.0.0/24", false); StatusCode(err) != http.StatusNotFound {
		t.Fatalf("a tenant nobody opened: want 404, got %v", err)
	}
	if _, err := c.Stats(ctx, "gone"); StatusCode(err) != http.StatusNotFound {
		t.Fatalf("a closed tenant: want 404, got %v", err)
	}
	live := exposureShape(scrapeText(s1))
	s1.Drain()

	s2 := New(cfg)
	t.Cleanup(s2.Drain)
	return "== live\n" + live + "== after restart\n" + exposureShape(scrapeText(s2))
}

// TestMetricsExpositionShape: the same history renders the same families,
// types, label names and series as it did when the scenario was captured
// (testdata/metrics_shape.txt); no metric is added, dropped or renamed, and a
// series appears only once it has something to say.
func TestMetricsExpositionShape(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics_shape.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := metricsShapeScenario(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for _, l := range wantLines {
		if !slices.Contains(gotLines, l) {
			t.Errorf("missing: %s", l)
		}
	}
	for _, l := range gotLines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("unexpected: %s", l)
		}
	}
	t.Errorf("/metrics shape differs from testdata/metrics_shape.txt:\n%s", got)
}
