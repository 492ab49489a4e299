package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"bonsai"
	"bonsai/internal/faultinject"
	"bonsai/internal/netgen"
)

// newTestServer stands up a Server over httptest and returns a client for
// it. Drain runs in cleanup so engines never leak across tests.
func newTestServer(t testing.TB, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Drain()
		hs.Close()
	})
	return s, NewClient(hs.URL)
}

// openNetwork serializes net and opens it as tenant name.
func openNetwork(ctx context.Context, c *Client, name string, net *bonsai.Network) error {
	var b bytes.Buffer
	if err := bonsai.Print(&b, net); err != nil {
		return err
	}
	return c.Open(ctx, name, &b)
}

// closeTenant deletes tenant name.
func closeTenant(ctx context.Context, c *Client, name string) error {
	return c.once(ctx, http.MethodDelete, "/v1/tenants/"+url.PathEscape(name), nil, nil)
}

// listTenants lists the open tenants.
func listTenants(ctx context.Context, c *Client) ([]TenantInfo, error) {
	var out []TenantInfo
	err := c.doIdem(ctx, http.MethodGet, "/v1/tenants", nil, &out)
	return out, err
}

func openFattree(t testing.TB, c *Client, name string, k int) {
	t.Helper()
	if err := openNetwork(context.Background(), c, name, netgen.Fattree(k, netgen.PolicyShortestPath)); err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
}

// TestTenantInfoCountsLiveLinks: after a link-down, the tenant's info (GET
// and list) reports the network as /compress does, live links only.
func TestTenantInfoCountsLiveLinks(t *testing.T) {
	_, c := newTestServer(t, Config{MaxQueriesPerTenant: 4})
	openFattree(t, c, "ft4", 4)
	ctx := context.Background()
	if _, err := c.Apply(ctx, "ft4", bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: "core-0", B: "agg-0-0"}}}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Compress(ctx, "ft4", bonsai.ClassSelector{})
	if err != nil {
		t.Fatal(err)
	}
	var info TenantInfo
	if err := c.doIdem(ctx, http.MethodGet, "/v1/tenants/ft4", nil, &info); err != nil {
		t.Fatal(err)
	}
	tenants, err := listTenants(ctx, c)
	if err != nil || len(tenants) != 1 {
		t.Fatalf("tenants: %+v, %v", tenants, err)
	}
	if info.Network != rep.Network || tenants[0].Network != rep.Network {
		t.Fatalf("after a link-down: GET %+v, list %+v, compress %+v", info.Network, tenants[0].Network, rep.Network)
	}
}

// TestServerLifecycle walks the whole API against one fattree tenant.
func TestServerLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{MaxQueriesPerTenant: 4, ApplyQueueDepth: 4})
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var v bonsai.VersionInfo
	if err := c.doIdem(ctx, http.MethodGet, "/version", nil, &v); err != nil || v.GoVersion == "" {
		t.Fatalf("version: %+v, %v", v, err)
	}

	openFattree(t, c, "ft4", 4)
	if err := openNetwork(ctx, c, "ft4", netgen.Fattree(4, netgen.PolicyShortestPath)); StatusCode(err) != http.StatusConflict {
		t.Fatalf("re-open: want 409, got %v", err)
	}

	tenants, err := listTenants(ctx, c)
	if err != nil || len(tenants) != 1 || tenants[0].Name != "ft4" {
		t.Fatalf("tenants: %+v, %v", tenants, err)
	}
	if tenants[0].Network.Routers == 0 || tenants[0].Network.Classes == 0 {
		t.Fatalf("tenant info incomplete: %+v", tenants[0])
	}

	crep, err := c.Compress(ctx, "ft4", bonsai.ClassSelector{})
	if err != nil || crep.ClassesCompressed == 0 {
		t.Fatalf("compress: %+v, %v", crep, err)
	}

	var rows int
	srep, err := c.CompressStream(ctx, "ft4", bonsai.ClassSelector{}, func(bonsai.ClassResult) { rows++ })
	if err != nil || rows == 0 || srep.ClassesCompressed != rows {
		t.Fatalf("compress stream: rows=%d rep=%+v err=%v", rows, srep, err)
	}

	// Pick a concrete edge router and a destination from the routes of the
	// first class.
	routes, err := c.Routes(ctx, "ft4", tenantFirstPrefix(t, c))
	if err != nil || len(routes.Routes) == 0 {
		t.Fatalf("routes: %+v, %v", routes, err)
	}
	src := routes.Routes[0].Router
	res, err := c.Reach(ctx, "ft4", src, routes.Dest, false)
	if err != nil {
		t.Fatalf("reach: %v", err)
	}
	if !res.Compressed {
		t.Fatalf("reach did not use compression: %+v", res)
	}
	cres, err := c.Reach(ctx, "ft4", src, routes.Dest, true)
	if err != nil || cres.Compressed {
		t.Fatalf("concrete reach: %+v, %v", cres, err)
	}
	if res.ReachAnswer != cres.ReachAnswer {
		t.Fatalf("compressed and concrete disagree: %+v vs %+v", res.ReachAnswer, cres.ReachAnswer)
	}

	roles, err := c.Roles(ctx, "ft4", bonsai.RolesRequest{})
	if err != nil || roles.Roles == 0 || roles.Roles > roles.Routers {
		t.Fatalf("roles: %+v, %v", roles, err)
	}

	vrep, err := c.Verify(ctx, "ft4", bonsai.VerifyRequest{MaxClasses: 2})
	if err != nil || vrep.Pairs == 0 {
		t.Fatalf("verify: %+v, %v", vrep, err)
	}

	// Apply a link flap and confirm adoption shows up in /metrics.
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	l := net.Links[0]
	arep, err := c.Apply(ctx, "ft4", bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: l.A, B: l.B}}})
	if err != nil || arep.Classes == 0 {
		t.Fatalf("apply: %+v, %v", arep, err)
	}
	if arep.Adopted+arep.Invalidated == 0 {
		t.Fatalf("apply touched nothing: %+v", arep)
	}

	st, err := c.Stats(ctx, "ft4")
	if err != nil || st.Cache.LiveBytes == 0 || st.Cache.Adopted+st.Cache.Fresh == 0 {
		t.Fatalf("stats: %+v, %v", st, err)
	}

	exp, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		`bonsai_adopted_total{tenant="ft4"}`,
		`bonsai_cache_live_bytes{tenant="ft4"}`,
		`bonsaid_request_seconds_count{tenant="ft4",op="compress"}`,
		"bonsai_sched_items_total",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	if err := closeTenant(ctx, c, "ft4"); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := c.Stats(ctx, "ft4"); StatusCode(err) != http.StatusNotFound {
		t.Fatalf("stats after close: want 404, got %v", err)
	}
}

func tenantFirstPrefix(t *testing.T, c *Client) string {
	t.Helper()
	// The compress stream yields class prefixes; grab one.
	var prefix string
	_, err := c.CompressStream(context.Background(), "ft4", bonsai.ClassSelector{MaxClasses: 1},
		func(r bonsai.ClassResult) { prefix = r.Prefix })
	if err != nil || prefix == "" {
		t.Fatalf("no class prefix: %v", err)
	}
	return prefix
}

// TestBooleanQueryParameters: a boolean query parameter means what
// strconv.ParseBool says it means, so "concrete=0" asks for the compressed
// answer, an absent or empty one is false, and garbage is a 400, not a yes.
func TestBooleanQueryParameters(t *testing.T) {
	_, c := newTestServer(t, Config{MaxQueriesPerTenant: 4})
	openFattree(t, c, "ft4", 4)
	const reach = "/v1/tenants/ft4/reach?src=edge-0-0&dest=10.0.0.0/24"
	const roles = "/v1/tenants/ft4/roles"
	const compress = "/v1/tenants/ft4/compress"
	// do returns the status and the content type followed by the body.
	do := func(method, path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, c.base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type") + "\n" + string(body)
	}
	_, defaultRoles := do("GET", roles)
	for _, tc := range []struct {
		method, path string
		status       int
		want         string // in the content type or the body
	}{
		{"GET", reach, 200, `"compressed": true`},
		{"GET", reach + "&concrete=", 200, `"compressed": true`},
		{"GET", reach + "&concrete=0", 200, `"compressed": true`},
		{"GET", reach + "&concrete=false", 200, `"compressed": true`},
		{"GET", reach + "&concrete=1", 200, `"compressed": false`},
		{"GET", reach + "&concrete=true", 200, `"compressed": false`},
		{"GET", reach + "&concrete=yes", 400, `bad concrete`},
		{"GET", roles + "?no_erase=0&no_statics=false", 200, defaultRoles},
		{"GET", roles + "?no_erase=1&no_statics=1", 200, `"roles": `},
		{"GET", roles + "?no_erase=maybe", 400, `bad no_erase`},
		{"GET", roles + "?no_statics=2", 400, `bad no_statics`},
		{"POST", compress + "?stream=0", 200, "application/json"},
		{"POST", compress + "?stream=1", 200, "application/x-ndjson"},
		{"POST", compress + "?stream=on", 400, `bad stream`},
	} {
		status, got := do(tc.method, tc.path)
		if status != tc.status || !strings.Contains(got, tc.want) {
			t.Errorf("%s %s: status %d, want %d with %q in %q", tc.method, tc.path, status, tc.status, tc.want, got)
		}
	}
}

// TestServerReplay streams a flap storm through /replay and checks the
// coalescing report comes back over the wire.
func TestServerReplay(t *testing.T) {
	_, c := newTestServer(t, Config{})
	openFattree(t, c, "net", 4)
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	l := net.Links[0]

	var b strings.Builder
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&b, `{"link_down":[{"a":%q,"b":%q}]}`+"\n", l.A, l.B)
		fmt.Fprintf(&b, `{"link_up":[{"a":%q,"b":%q}]}`+"\n", l.A, l.B)
	}
	rep, err := c.Replay(context.Background(), "net", strings.NewReader(b.String()), 32, 0)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Deltas != 12 {
		t.Fatalf("deltas = %d, want 12", rep.Deltas)
	}
	if rep.Coalesced == 0 {
		t.Fatalf("flap storm did not coalesce: %+v", rep)
	}
}

// TestInterruptedReplayKeepsNextRequestLive: a replay whose batch fails to
// apply (here a panic armed at the apply.swap seam, which the engine
// contains) interrupts the body read. With the body already read to its
// end, that failed the server's background read of the connection, which
// cancels the context of every later request on it: the next replay over
// the same keep-alive connection answered 500 "context canceled". Repeated,
// because whether the body's end is reached before the batch fails is
// timing.
func TestInterruptedReplayKeepsNextRequestLive(t *testing.T) {
	_, c := newTestServer(t, Config{})
	openFattree(t, c, "net", 4)
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	post := func(body string) (int, string) {
		resp, err := hc.Post(c.base+"/v1/tenants/net/replay", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	const down = `{"link_down":[{"a":"core-0","b":"agg-0-0"}]}` + "\n"
	const flap = down + `{"link_up":[{"a":"core-0","b":"agg-0-0"}]}` + "\n"
	t.Cleanup(faultinject.Reset)
	for i := 0; i < 50; i++ {
		disarm := faultinject.Arm(faultinject.ApplySwap, func(string) { panic("swap poisoned") })
		code, msg := post(down)
		disarm()
		if code != http.StatusInternalServerError || !strings.Contains(msg, "swap poisoned") {
			t.Fatalf("round %d: a replay whose batch panics: status %d %s, want 500 naming the panic", i, code, msg)
		}
		if code, msg := post(flap); code != http.StatusOK {
			t.Fatalf("round %d: the replay after an interrupted one: status %d %s", i, code, msg)
		}
	}
}

// TestServerConcurrentTenants races opens, queries, applies and closes
// across tenants sharing one pool — the meaningful assertions are the race
// detector's plus end-state accounting.
func TestServerConcurrentTenants(t *testing.T) {
	probe := Config{}
	_ = probe
	s, c := newTestServer(t, Config{
		GlobalBudget:        64 << 20,
		TenantFloor:         1 << 20,
		MaxQueriesPerTenant: 4,
		ApplyQueueDepth:     4,
	})
	ctx := context.Background()

	const n = 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			openFattree(t, c, name, 4)
			if _, err := c.Compress(ctx, name, bonsai.ClassSelector{}); err != nil {
				t.Errorf("%s compress: %v", name, err)
			}
			net := netgen.Fattree(4, netgen.PolicyShortestPath)
			l := net.Links[i]
			if _, err := c.Apply(ctx, name, bonsai.Delta{
				LinkDown: []bonsai.LinkRef{{A: l.A, B: l.B}},
			}); err != nil {
				t.Errorf("%s apply: %v", name, err)
			}
			if _, err := c.Compress(ctx, name, bonsai.ClassSelector{MaxClasses: 4}); err != nil {
				t.Errorf("%s recompress: %v", name, err)
			}
		}(i)
	}
	wg.Wait()

	ps := s.pool.Stats()
	var sum int64
	for _, m := range ps.Members {
		sum += m.LiveBytes
	}
	if sum != ps.LiveBytes {
		t.Fatalf("pool accounting drift: members %d, total %d", sum, ps.LiveBytes)
	}
	for i := 0; i < n; i++ {
		if err := closeTenant(ctx, c, fmt.Sprintf("t%d", i)); err != nil {
			t.Errorf("close t%d: %v", i, err)
		}
	}
	if got := s.pool.Stats().LiveBytes; got != 0 {
		t.Fatalf("pool holds %d bytes after all tenants closed", got)
	}
}

// TestServerCrossTenantFloor opens a small tenant whose floor covers its
// whole footprint, then a big tenant under a tight global ceiling: the
// pressure must land on the big tenant only.
func TestServerCrossTenantFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("fattree-6 build in -short")
	}
	// Probe one fattree-4's footprint with a throwaway engine.
	eng, err := bonsai.Open(netgen.Fattree(4, netgen.PolicyShortestPath))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Compress(context.Background(), bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	one := eng.Stats().LiveBytes
	eng.Close()
	if one <= 0 {
		t.Fatal("no probe bytes")
	}

	s, c := newTestServer(t, Config{GlobalBudget: one + one/2, TenantFloor: one})
	ctx := context.Background()
	openFattree(t, c, "small", 4)
	if _, err := c.Compress(ctx, "small", bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}
	openFattree(t, c, "big", 6)
	if _, err := c.Compress(ctx, "big", bonsai.ClassSelector{}); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx, "small")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Evictions != 0 {
		t.Fatalf("small tenant evicted %d entries despite floor", st.Cache.Evictions)
	}
	ps := s.pool.Stats()
	if ps.CrossEvictions == 0 {
		t.Fatalf("no cross-tenant evictions under pressure: %+v", ps)
	}
}

// TestServerOverload exercises both admission paths: 429 when the query
// quota is exhausted, 503 + Retry-After when the apply queue is full.
func TestServerOverload(t *testing.T) {
	s, c := newTestServer(t, Config{MaxQueriesPerTenant: 1, ApplyQueueDepth: 1})
	ctx := context.Background()
	openFattree(t, c, "net", 4)
	tn, err := s.reg.get("net")
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single query slot, then hit a query endpoint.
	if err := tn.acquire(tn.queries, ErrQueryBusy); err != nil {
		t.Fatal(err)
	}
	_, err = c.Roles(ctx, "net", bonsai.RolesRequest{})
	if StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %v", err)
	}
	<-tn.queries

	// Block the write path by holding the write lock, then fill the depth-1
	// queue step by step so the occupancy is deterministic: two deltas
	// admitted and parked on the lock (one "executing", one "queued"), the
	// third must bounce with 503.
	tn.writeMu.Lock()
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	flap := []bonsai.Delta{
		{LinkDown: []bonsai.LinkRef{{A: net.Links[0].A, B: net.Links[0].B}}},
		{LinkUp: []bonsai.LinkRef{{A: net.Links[0].A, B: net.Links[0].B}}},
		{LinkDown: []bonsai.LinkRef{{A: net.Links[1].A, B: net.Links[1].B}}},
	}
	results := make(chan error, 2)
	sent := 0
	sendApply := func() {
		d := flap[sent]
		sent++
		go func() {
			_, err := c.Apply(ctx, "net", d)
			results <- err
		}()
	}
	sendApply()
	waitUntil(t, "first delta to be admitted", func() bool { return len(tn.writes) == 1 })
	sendApply()
	waitUntil(t, "second delta to fill the queue", func() bool { return len(tn.writes) == 2 })

	_, rejected := c.Apply(ctx, "net", flap[2])
	if StatusCode(rejected) != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %v", rejected)
	}
	var ae *apiError
	if !errors.As(rejected, &ae) || ae.RetryAfter <= 0 {
		t.Fatalf("503 without Retry-After: %v", rejected)
	}
	tn.writeMu.Unlock()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued apply failed: %v", err)
		}
	}

	exp, _ := c.Metrics(ctx)
	if !strings.Contains(exp, `bonsaid_rejected_total{tenant="net",reason="query_quota"}`) {
		t.Error("missing query_quota rejection metric")
	}
	if !strings.Contains(exp, `bonsaid_rejected_total{tenant="net",reason="apply_queue"}`) {
		t.Error("missing apply_queue rejection metric")
	}
}

// TestServerDrain starts a replay held open by a slow body, drains, and
// asserts: the in-flight replay completes, new requests get 503, every
// engine is closed.
func TestServerDrain(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	openFattree(t, c, "net", 4)
	net := netgen.Fattree(4, netgen.PolicyShortestPath)
	l := net.Links[0]

	pr, pw := io.Pipe()
	started := make(chan struct{})
	replayDone := make(chan error, 1)
	go func() {
		close(started)
		_, err := c.Replay(ctx, "net", pr, 0, 0)
		replayDone <- err
	}()
	<-started
	// Feed one delta, then wait until the engine's stream has read it — the
	// transport buffers the pipe write before the handler is even admitted,
	// so the write alone does not prove the replay is in flight.
	if _, err := fmt.Fprintf(pw, `{"link_down":[{"a":%q,"b":%q}]}`+"\n", l.A, l.B); err != nil {
		t.Fatal(err)
	}
	tn, err := s.reg.get("net")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); tn.eng.ApplyStats().Received < 1; {
		if time.Now().After(deadline) {
			t.Fatal("replay never started ingesting")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()

	// Drain must be blocked on the in-flight replay; new requests 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := listTenants(ctx, c)
		if StatusCode(err) == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started refusing requests")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-drained:
		t.Fatal("drain finished with a replay in flight")
	default:
	}

	pw.Close() // end the delta stream; replay can finish
	if err := <-replayDone; err != nil {
		t.Fatalf("in-flight replay failed across drain: %v", err)
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete after in-flight work finished")
	}
	if got := len(s.reg.names()); got != 0 {
		t.Fatalf("%d tenants survive drain", got)
	}
}

// TestServerTenantLimit: with MaxTenants set, an open past the cap is a 429
// that leaves nothing behind, and closing a tenant frees its slot.
func TestServerTenantLimit(t *testing.T) {
	_, c := newTestServer(t, Config{MaxTenants: 1})
	ctx := context.Background()
	openFattree(t, c, "a", 4)
	if err := openNetwork(ctx, c, "b", netgen.Fattree(4, netgen.PolicyShortestPath)); StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("open past the tenant cap: want 429, got %v", err)
	}
	if tenants, err := listTenants(ctx, c); err != nil || len(tenants) != 1 {
		t.Fatalf("tenants after a refused open: %+v, %v", tenants, err)
	}
	if err := closeTenant(ctx, c, "a"); err != nil {
		t.Fatal(err)
	}
	openFattree(t, c, "b", 4)
}

// TestServerIdleEviction verifies the janitor closes tenants past the TTL.
func TestServerIdleEviction(t *testing.T) {
	s, c := newTestServer(t, Config{IdleTTL: 50 * time.Millisecond})
	openFattree(t, c, "net", 4)
	// The janitor ticks at >= 1s; call the sweep directly for a fast test.
	time.Sleep(60 * time.Millisecond)
	for _, name := range s.reg.idleNames(s.cfg.IdleTTL) {
		if err := s.reg.close(name, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Stats(context.Background(), "net"); StatusCode(err) != http.StatusNotFound {
		t.Fatalf("idle tenant still present: %v", err)
	}
}

// TestRegistryApplyCloseRace hammers the write path (admission + write)
// against a concurrent close. Nothing may panic, and every write must
// resolve to a report or a clean tenant/queue error; run with -race.
func TestRegistryApplyCloseRace(t *testing.T) {
	noop := bonsai.Delta{LinkUp: []bonsai.LinkRef{{A: "r-0000", B: "r-0001"}}}
	for round := 0; round < 5; round++ {
		reg := newRegistry(Config{MaxQueriesPerTenant: 4, ApplyQueueDepth: 4}, nil)
		tn, err := reg.open("race", netgen.FullMesh(4))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 25; j++ {
					err := tn.acquire(tn.writes, ErrApplyQueueFull)
					if err == nil {
						var rep *bonsai.ApplyReport
						rep, err = tn.write(context.Background(), noop)
						<-tn.writes
						if err == nil && rep == nil {
							t.Error("write: nil report without an error")
						}
					}
					if errors.Is(err, ErrTenantNotFound) {
						return // closed under us: the expected clean outcome
					}
					if err != nil && !errors.Is(err, ErrApplyQueueFull) {
						t.Errorf("write: %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := reg.close("race", false); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

// getStatus is the status code of one plain GET.
func getStatus(t *testing.T, c *Client, path string) int {
	t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestReachClientErrorsAreNot5xx: a router the network does not have, a
// destination no class owns and a destination that is not a prefix are the
// asker's mistakes. Answering 500 would make a typo look like an outage.
func TestReachClientErrorsAreNot5xx(t *testing.T) {
	_, c := newTestServer(t, Config{MaxQueriesPerTenant: 4})
	openFattree(t, c, "ft4", 4)
	const reach, routes = "/v1/tenants/ft4/reach", "/v1/tenants/ft4/routes"
	for _, tc := range []struct {
		path string
		want int
	}{
		{reach + "?src=edge-0-0&dest=10.0.0.0/24", 200},
		{reach + "?src=edge-9-9&dest=10.0.0.0/24", 404},
		{reach + "?src=edge-0-0&dest=192.0.2.0/24", 404},
		{reach + "?src=edge-0-0&dest=not-a-prefix", 404},
		{reach + "?src=edge-0-0&dest=not-a-prefix&concrete=1", 404},
		{routes + "?dest=192.0.2.0/24", 404},
		{routes + "?dest=10.0.0.0/24", 200},
		{reach + "?src=edge-0-0&dest=10.0.0.0/24&concrete=maybe", 400},
	} {
		if got := getStatus(t, c, tc.path); got != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.path, got, tc.want)
		}
	}
}

// TestMetricsCardinalityIsBoundedByTenants: /metrics has series for the
// tenants the registry holds and for no other name, whatever clients ask for
// and whichever tenants have come and gone.
func TestMetricsCardinalityIsBoundedByTenants(t *testing.T) {
	_, c := newTestServer(t, Config{MaxQueriesPerTenant: 4})
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		if got := getStatus(t, c, fmt.Sprintf("/v1/tenants/ghost-%d/reach?src=a&dest=10.0.0.0/24", i)); got != 404 {
			t.Fatalf("reach on a tenant nobody opened: status %d", got)
		}
	}
	exp, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exp, "ghost-") {
		t.Fatalf("/metrics carries names no tenant ever had (%d bytes)", len(exp))
	}
	if !strings.Contains(exp, `bonsaid_request_seconds_count{tenant="-",op="reach"} 1000`) {
		t.Fatalf("the 1000 refused requests are not counted under the tenant-less label:\n%s", exp)
	}

	openFattree(t, c, "passing", 4)
	l := netgen.Fattree(4, netgen.PolicyShortestPath).Links[0]
	if _, err := c.Apply(ctx, "passing", bonsai.Delta{LinkDown: []bonsai.LinkRef{{A: l.A, B: l.B}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reach(ctx, "passing", "edge-0-0", "10.0.0.0/24", false); err != nil {
		t.Fatal(err)
	}
	if exp, err = c.Metrics(ctx); err != nil || !strings.Contains(exp, `bonsaid_request_seconds_count{tenant="passing",op="open"} 1`) {
		t.Fatalf("a live tenant's requests are not labelled with it (%v):\n%s", err, exp)
	}
	if err := closeTenant(ctx, c, "passing"); err != nil {
		t.Fatal(err)
	}
	if exp, err = c.Metrics(ctx); err != nil || strings.Contains(exp, "passing") {
		t.Fatalf("a closed tenant's series outlive it (%v):\n%s", err, exp)
	}
}

// TestBadGadgetAnswersNoneNot500: a class with no stable solution is an
// answer, not a server fault. /reach and /routes on BAD GADGET are 200s
// saying "none", and /verify says it counted no pair; a diverging solve
// must not surface as a 500.
func TestBadGadgetAnswersNoneNot500(t *testing.T) {
	_, c := newTestServer(t, Config{MaxQueriesPerTenant: 4})
	ctx := context.Background()
	net, err := bonsai.ParseFile("../../testdata/regress/badgadget.cfg")
	if err != nil {
		t.Fatal(err)
	}
	if err := openNetwork(ctx, c, "bad", net); err != nil {
		t.Fatal(err)
	}
	if got := getStatus(t, c, "/v1/tenants/bad/reach?src=a&dest=10.0.0.0/24"); got != 200 {
		t.Fatalf("GET /reach: status %d, want 200", got)
	}
	for _, concrete := range []bool{false, true} {
		r, err := c.Reach(ctx, "bad", "a", "10.0.0.0/24", concrete)
		if err != nil {
			t.Fatal(err)
		}
		if want := (bonsai.ReachAnswer{Stable: "none"}); r.ReachAnswer != want {
			t.Errorf("reach (concrete %v) = %+v, want %+v", concrete, r.ReachAnswer, want)
		}
	}
	routes, err := c.Routes(ctx, "bad", "10.0.0.0/24")
	if err != nil || routes.Stable != "none" {
		t.Errorf("routes: %+v, %v; want stable none", routes, err)
	}
	rep, err := c.Verify(ctx, "bad", bonsai.VerifyRequest{})
	if err != nil || rep.Stable != "none" || rep.ReachablePairs != 0 {
		t.Errorf("verify: %+v, %v; want stable none, no reachable pair", rep, err)
	}
}
