package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bonsai"
)

// Retried idempotent calls: a 429 burst clears and the call succeeds without
// the caller seeing the rejections.
func TestClientRetries429(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"tenant busy"}`, http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(TenantStats{Name: "x"})
	}))
	defer hs.Close()
	c := NewClient(hs.URL)
	st, err := c.Stats(context.Background(), "x")
	if err != nil {
		t.Fatalf("stats after 429 burst: %v", err)
	}
	if st.Name != "x" || hits.Load() != 3 {
		t.Fatalf("got %+v after %d attempts, want success on attempt 3", st, hits.Load())
	}
}

// A persistent 429 still surfaces once the retry budget is spent.
func TestClientRetryBudget(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
	}))
	defer hs.Close()
	c := NewClient(hs.URL)
	_, err := c.Stats(context.Background(), "x")
	if StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("err %v, want 429", err)
	}
	if hits.Load() != 4 { // initial attempt + 3 retries
		t.Fatalf("%d attempts, want 4", hits.Load())
	}
}

// Apply is a mutation: one attempt, the 429 goes straight to the caller who
// owns the ack bookkeeping.
func TestClientApplyNeverRetried(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
	}))
	defer hs.Close()
	c := NewClient(hs.URL)
	d := bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "a", B: "b"}}}
	if _, err := c.Apply(context.Background(), "x", d); StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("err %v, want 429", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("%d attempts for Apply, want exactly 1", hits.Load())
	}
}

// Retry-After is honored: the client waits at least the advertised delay.
func TestClientHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(TenantStats{Name: "x"})
	}))
	defer hs.Close()
	c := NewClient(hs.URL)
	start := time.Now()
	if _, err := c.Stats(context.Background(), "x"); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if d := time.Since(start); d < 900*time.Millisecond {
		t.Fatalf("retried after %v, want >= ~1s from Retry-After", d)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Fatalf("seconds form: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Fatalf("empty: %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Fatalf("garbage: %v", d)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 8*time.Second || d > 10*time.Second {
		t.Fatalf("http-date form: %v", d)
	}
}

// TestCompressStreamCarriesTheDaemonsError: a refused stream returns the
// daemon's reason, as the batch call with the same selector does.
func TestCompressStreamCarriesTheDaemonsError(t *testing.T) {
	_, c := newTestServer(t, Config{})
	openFattree(t, c, "ft4", 4)
	ctx := context.Background()
	sel := bonsai.ClassSelector{Prefix: "192.0.2.0/24"}
	_, want := c.Compress(ctx, "ft4", sel)
	_, got := c.CompressStream(ctx, "ft4", sel, nil)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("stream error %v, batch error %v", got, want)
	}
}
