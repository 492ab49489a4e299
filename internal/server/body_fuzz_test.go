package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"bonsai/internal/netgen"
)

// corpusSeeds returns the values of the one-argument corpus entries under
// dir, as `go test` writes them: a "go test fuzz v1" line, then one string(…)
// or []byte(…) literal.
func corpusSeeds(f *testing.F, dir string) []string {
	f.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no corpus under %s: %v", dir, err)
	}
	var seeds []string
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lit := strings.TrimSpace(strings.SplitN(string(raw), "\n", 2)[1])
		lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(lit, "[]byte("), "string("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// fuzzBodyServer stands up an ephemeral server for a body fuzz target and
// returns a do function that sends one request and answers with its status.
// Every 5xx fails the input: whatever bytes a client sends are the client's
// mistake or are served.
func fuzzBodyServer(f *testing.F) (c *Client, do func(t *testing.T, method, path string, body []byte) int) {
	_, c = newTestServer(f, Config{})
	return c, func(t *testing.T, method, path string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body) // only the failure message reads it
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, msg)
		}
		return resp.StatusCode
	}
}

// FuzzOpenBody: PUT /v1/tenants/{name} with any body answers below 500, and
// a tenant it creates answers /stats with 200 (it is then closed, so every
// input opens a fresh name), as does a Fattree(4) tenant opened beforehand.
// The seeds are FuzzParse's configurations (internal/config/testdata/fuzz).
func FuzzOpenBody(f *testing.F) {
	for _, s := range corpusSeeds(f, "../config/testdata/fuzz/FuzzParse") {
		f.Add([]byte(s))
	}
	c, do := fuzzBodyServer(f)
	openFattree(f, c, "ft4", 4)
	f.Fuzz(func(t *testing.T, body []byte) {
		if do(t, http.MethodPut, "/v1/tenants/fz", body) == http.StatusCreated {
			if got := do(t, http.MethodGet, "/v1/tenants/fz/stats", nil); got != http.StatusOK {
				t.Fatalf("an opened tenant's /stats: status %d", got)
			}
			if got := do(t, http.MethodDelete, "/v1/tenants/fz", nil); got != http.StatusOK {
				t.Fatalf("closing an opened tenant: status %d", got)
			}
		}
		if got := do(t, http.MethodGet, "/v1/tenants/ft4/stats", nil); got != http.StatusOK {
			t.Fatalf("the standing tenant's /stats after an open: status %d", got)
		}
	})
}

// FuzzReplayBody: POST /v1/tenants/{name}/replay with any body answers below
// 500, and the tenant answers /stats with 200 afterwards. Each input replays
// onto a Fattree(4) tenant of its own, closed after. The seeds are
// FuzzDeltaJSON's deltas (testdata/fuzz), each alone and all as one stream.
func FuzzReplayBody(f *testing.F) {
	deltas := corpusSeeds(f, "../../testdata/fuzz/FuzzDeltaJSON")
	for _, d := range deltas {
		f.Add([]byte(d + "\n"))
	}
	f.Add([]byte(strings.Join(deltas, "\n")))
	c, do := fuzzBodyServer(f)
	var n atomic.Int64
	f.Fuzz(func(t *testing.T, body []byte) {
		name := "ft4-" + strconv.FormatInt(n.Add(1), 10)
		if err := openNetwork(context.Background(), c, name, netgen.Fattree(4, netgen.PolicyShortestPath)); err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		defer closeTenant(context.Background(), c, name)
		do(t, http.MethodPost, "/v1/tenants/"+name+"/replay", body)
		if got := do(t, http.MethodGet, "/v1/tenants/"+name+"/stats", nil); got != http.StatusOK {
			t.Fatalf("/stats after a replay: status %d", got)
		}
	})
}
