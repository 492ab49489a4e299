// Package server is the bonsaid daemon core: a multi-tenant HTTP/JSON API
// over bonsai engines. Each named tenant wraps one engine; all tenants
// share a global abstraction-memory pool with per-tenant budget floors, and
// every request passes admission control (per-tenant concurrent-query
// quotas, bounded apply queues) so an overloaded tenant degrades with 429s
// and 503s instead of taking the process down. Shutdown is a graceful
// drain: stop admitting, let in-flight work finish, close every engine.
//
// The API (all request/response bodies are JSON):
//
//	GET    /healthz                       liveness probe
//	GET    /version                       build metadata
//	GET    /metrics                       Prometheus text exposition
//	GET    /v1/tenants                    list tenants
//	PUT    /v1/tenants/{name}             open (body: network text)
//	GET    /v1/tenants/{name}             tenant info
//	DELETE /v1/tenants/{name}             close
//	POST   /v1/tenants/{name}/apply       one Delta -> ApplyReport
//	POST   /v1/tenants/{name}/replay      JSONL Deltas -> ApplyStreamReport
//	POST   /v1/tenants/{name}/verify      VerifyRequest -> Report
//	POST   /v1/tenants/{name}/compress    ClassSelector -> CompressReport
//	GET    /v1/tenants/{name}/reach       ?src=&dest=[&concrete=1]
//	GET    /v1/tenants/{name}/routes      ?dest=
//	GET    /v1/tenants/{name}/roles       [?no_erase=1][&no_statics=1]
//	GET    /v1/tenants/{name}/stats       cache + apply-stream snapshot
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"bonsai"
	"bonsai/internal/ec"
	"bonsai/internal/journal"
	"bonsai/internal/verify"
)

// Config sizes the daemon's shared resources and per-tenant quotas. The
// zero value serves: no global budget (every store unbounded), no tenant
// cap, single-query tenants, one write waiting behind the one executing, no
// idle eviction.
type Config struct {
	// GlobalBudget caps retained abstraction bytes across ALL tenants; 0
	// disables the shared pool. TenantFloor is the per-tenant budget floor:
	// cross-tenant eviction pressure never shrinks a tenant below it.
	GlobalBudget int64
	TenantFloor  int64
	// MaxTenants bounds concurrently open tenants (0 = unbounded).
	MaxTenants int
	// MaxQueriesPerTenant bounds concurrently admitted queries per tenant;
	// excess fail fast with 429. ApplyQueueDepth bounds the /apply writes
	// that may wait per tenant behind the one executing (it sizes the write
	// admission semaphore; there is no queue); excess fail fast with 503 +
	// Retry-After.
	MaxQueriesPerTenant int
	ApplyQueueDepth     int
	// IdleTTL closes tenants unused this long (0 = never).
	IdleTTL time.Duration

	// DataDir enables durability: each tenant gets a write-ahead delta
	// journal plus checkpoint under DataDir/<escaped-name>, every admitted
	// delta is journaled before it is applied, and New recovers all
	// journaled tenants from disk. Empty disables persistence.
	DataDir string
	// Fsync is the journal fsync policy (default journal.SyncAlways);
	// FsyncInterval is the flush period under SyncInterval (default 100ms).
	Fsync         journal.SyncPolicy
	FsyncInterval time.Duration
	// CheckpointEvery checkpoints a tenant once its journal tail reaches
	// this many records (0 = default 4096, negative = never in the
	// background; tenants still checkpoint when sealed on drain/eviction).
	CheckpointEvery int
}

// Server is the daemon core: registry + pool + metrics behind an
// http.Handler. Create with New, serve with ServeHTTP, stop with Drain.
type Server struct {
	cfg  Config
	pool *bonsai.SharedPool
	reg  *registry
	ops  *opStats // requests no held tenant owns: tenant="-"
	mux  *http.ServeMux

	janitorStop chan struct{}
	janitorDone chan struct{}
	drainOnce   sync.Once
}

// New builds a Server from cfg and starts its idle-eviction janitor.
func New(cfg Config) *Server {
	var pool *bonsai.SharedPool
	if cfg.GlobalBudget > 0 {
		pool = bonsai.NewSharedPool(cfg.GlobalBudget)
	}
	s := &Server{
		cfg:         cfg,
		pool:        pool,
		reg:         newRegistry(cfg, pool),
		ops:         newOpStats(),
		mux:         http.NewServeMux(),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.routes()
	if cfg.DataDir != "" {
		// Recover journaled tenants before serving: requests arriving after
		// New returns see every tenant that survived the previous process.
		s.reg.recoverAll()
	}
	go s.janitor()
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting requests, waits for in-flight work to finish, and
// closes every tenant engine. Safe to call more than once.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		close(s.janitorStop)
		<-s.janitorDone
		s.reg.drain()
	})
}

// janitor periodically evicts idle tenants.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	if s.cfg.IdleTTL <= 0 {
		<-s.janitorStop
		return
	}
	period := s.cfg.IdleTTL / 4
	if period < time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			for _, name := range s.reg.idleNames(s.cfg.IdleTTL) {
				// Keep data: eviction reclaims memory, not history.
				s.reg.close(name, false)
			}
		}
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /version", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, bonsai.Version())
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	s.mux.HandleFunc("GET /v1/tenants", s.instrument("list", s.handleList))
	s.mux.HandleFunc("PUT /v1/tenants/{name}", s.instrument("open", s.handleOpen))
	s.mux.HandleFunc("GET /v1/tenants/{name}", s.instrument("info", s.handleInfo))
	s.mux.HandleFunc("DELETE /v1/tenants/{name}", s.instrument("close", s.handleClose))

	s.mux.HandleFunc("POST /v1/tenants/{name}/apply", s.instrument("apply", s.handleApply))
	s.mux.HandleFunc("POST /v1/tenants/{name}/replay", s.instrument("replay", s.handleReplay))
	s.mux.HandleFunc("POST /v1/tenants/{name}/verify", s.instrument("verify", s.tenantQuery(s.handleVerify)))
	s.mux.HandleFunc("POST /v1/tenants/{name}/compress", s.instrument("compress", s.tenantQuery(s.handleCompress)))
	s.mux.HandleFunc("GET /v1/tenants/{name}/reach", s.instrument("reach", s.tenantQuery(s.handleReach)))
	s.mux.HandleFunc("GET /v1/tenants/{name}/routes", s.instrument("routes", s.tenantQuery(s.handleRoutes)))
	s.mux.HandleFunc("GET /v1/tenants/{name}/roles", s.instrument("roles", s.tenantQuery(s.handleRoles)))
	s.mux.HandleFunc("GET /v1/tenants/{name}/stats", s.instrument("stats", s.tenantQuery(s.handleStats)))
}

// instrument wraps a handler with drain admission and the latency
// histogram.
func (s *Server) instrument(op string, h http.HandlerFunc) http.HandlerFunc {
	i := slices.Index(ops[:], op)
	return func(w http.ResponseWriter, r *http.Request) {
		done, err := s.reg.admit()
		if err != nil {
			s.opsFor(r).rejected[rejectDraining].Add(1)
			s.httpError(w, err)
			return
		}
		defer done()
		start := time.Now()
		h(w, r)
		s.opsFor(r).seconds[i].Observe(time.Since(start).Seconds())
	}
}

// opsFor is where a request is counted: the path's tenant if the registry
// holds it now, else the Server's tenant="-" (/v1/tenants, a 404, a tenant
// its own DELETE just closed), so a name a client invents never becomes a
// series.
func (s *Server) opsFor(r *http.Request) *opStats {
	if t, err := s.reg.get(r.PathValue("name")); err == nil {
		return t.ops
	}
	return s.ops
}

// tenantQuery resolves the tenant and admits the request against its
// concurrent-query quota before invoking h.
func (s *Server) tenantQuery(h func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		t, err := s.reg.get(name)
		if err != nil {
			s.httpError(w, err)
			return
		}
		if err := t.acquire(t.queries, ErrQueryBusy); err != nil {
			if errors.Is(err, ErrQueryBusy) {
				t.ops.rejected[rejectQueryQuota].Add(1)
			}
			s.httpError(w, err)
			return
		}
		defer func() { <-t.queries }()
		h(w, r, t)
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	infos := make([]TenantInfo, 0)
	for _, name := range s.reg.names() {
		if t, err := s.reg.get(name); err == nil {
			infos = append(infos, s.reg.info(t))
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	net, err := bonsai.Parse(http.MaxBytesReader(w, r.Body, 64<<20))
	if err == nil {
		err = net.Validate() // a dangling reference is the client's, not a 500 from Open
	}
	if err != nil {
		s.httpError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	t, err := s.reg.open(name, net)
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.reg.info(t))
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.get(r.PathValue("name"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.reg.info(t))
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.close(name, true); err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.get(r.PathValue("name"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	var d bonsai.Delta
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDeltaBytes)).Decode(&d); err != nil {
		s.httpError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	if err := t.acquire(t.writes, ErrApplyQueueFull); err != nil {
		if errors.Is(err, ErrApplyQueueFull) {
			t.ops.rejected[rejectApplyQueue].Add(1)
		}
		s.httpError(w, err)
		return
	}
	defer func() { <-t.writes }()
	rep, err := t.write(r.Context(), d)
	if err != nil {
		s.httpError(w, err)
		return
	}
	t.adopted.Add(int64(rep.Adopted))
	t.invalidated.Add(int64(rep.Invalidated))
	writeJSON(w, http.StatusOK, rep)
}

// handleReplay streams JSONL deltas from the request body through the
// tenant's replay write path.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.get(r.PathValue("name"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	var opts []bonsai.StreamApplyOption
	if v := r.URL.Query().Get("pending"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.httpError(w, fmt.Errorf("%w: bad pending %q", errBadRequest, v))
			return
		}
		opts = append(opts, bonsai.WithMaxPending(n))
	}
	if v := r.URL.Query().Get("staleness"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.httpError(w, fmt.Errorf("%w: bad staleness %q", errBadRequest, v))
			return
		}
		opts = append(opts, bonsai.WithMaxStaleness(d))
	}
	t.touch()

	// An expired read deadline fails the body read the decode loop may be
	// parked in; a writer without deadlines (a test recorder) has no such
	// read to fail. Once the body is read to its end, the server reads the
	// connection in the background, and the deadline fails that read
	// instead, which cancels the context of every later request on the
	// connection: an interrupted replay closes it.
	interrupted := false // written before the replay returns, on the stream's goroutine
	interrupt := func() {
		interrupted = true
		http.NewResponseController(w).SetReadDeadline(time.Now())
	}
	rep, err := t.replay(r.Context(), r.Body, interrupt, opts...)
	if interrupted {
		w.Header().Set("Connection", "close")
	}
	if rep != nil {
		t.editsReceived.Add(int64(rep.EditsReceived))
		t.editsApplied.Add(int64(rep.EditsApplied))
		t.adopted.Add(int64(rep.Adopted))
		t.invalidated.Add(int64(rep.Invalidated))
	}
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req bonsai.VerifyRequest
	if err := decodeOptionalBody(w, r, &req); err != nil {
		s.httpError(w, err)
		return
	}
	rep, err := t.eng.Verify(r.Context(), req)
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request, t *tenant) {
	stream, err := queryBool(r.URL.Query(), "stream")
	if err != nil {
		s.httpError(w, err)
		return
	}
	var sel bonsai.ClassSelector
	if err := decodeOptionalBody(w, r, &sel); err != nil {
		s.httpError(w, err)
		return
	}
	st, err := t.eng.CompressStream(r.Context(), sel)
	if err != nil {
		s.httpError(w, err)
		return
	}
	if stream {
		// NDJSON: one {"row":...} per completed class, then a {"report":...}
		// trailer that carries any stream error so a truncated stream is
		// distinguishable from a completed one.
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		fl, _ := w.(http.Flusher)
		rows := 0
		for row := range st.Results() {
			if enc.Encode(map[string]any{"row": row}) != nil {
				break // client gone; the range-break path cancels the stream
			}
			rows++
			if fl != nil {
				fl.Flush()
			}
		}
		rep := st.Report()
		t.compressClasses.Add(int64(rep.ClassesCompressed))
		t.compressNs.Add(int64(rep.Duration))
		if err := st.Err(); err != nil && rows == 0 {
			s.httpError(w, err) // nothing written yet: full error response
			return
		}
		trailer := map[string]any{"report": rep}
		if err := st.Err(); err != nil {
			trailer["error"] = err.Error()
		}
		enc.Encode(trailer)
		return
	}
	for range st.Results() {
	}
	if err := st.Err(); err != nil {
		s.httpError(w, err)
		return
	}
	rep := st.Report()
	t.compressClasses.Add(int64(rep.ClassesCompressed))
	t.compressNs.Add(int64(rep.Duration))
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request, t *tenant) {
	q := r.URL.Query()
	src, dest := q.Get("src"), q.Get("dest")
	if src == "" || dest == "" {
		s.httpError(w, fmt.Errorf("%w: src and dest required", errBadRequest))
		return
	}
	concrete, err := queryBool(q, "concrete")
	if err != nil {
		s.httpError(w, err)
		return
	}
	var res *bonsai.ReachResult
	if concrete {
		res, err = t.eng.ReachConcrete(r.Context(), src, dest)
	} else {
		res, err = t.eng.Reach(r.Context(), src, dest)
	}
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRoutes(w http.ResponseWriter, r *http.Request, t *tenant) {
	dest := r.URL.Query().Get("dest")
	if dest == "" {
		s.httpError(w, fmt.Errorf("%w: dest required", errBadRequest))
		return
	}
	rep, err := t.eng.Routes(r.Context(), dest)
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleRoles(w http.ResponseWriter, r *http.Request, t *tenant) {
	q := r.URL.Query()
	noErase, err := queryBool(q, "no_erase")
	if err != nil {
		s.httpError(w, err)
		return
	}
	noStatics, err := queryBool(q, "no_statics")
	if err != nil {
		s.httpError(w, err)
		return
	}
	rep, err := t.eng.Roles(r.Context(), bonsai.RolesRequest{NoErase: noErase, NoStatics: noStatics})
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// TenantStats is the /stats wire shape. Journal is nil for ephemeral
// tenants (no -data-dir).
type TenantStats struct {
	Name    string            `json:"name"`
	Cache   bonsai.CacheStats `json:"cache"`
	Apply   bonsai.ApplyStats `json:"apply"`
	Journal *JournalStats     `json:"journal,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, t *tenant) {
	writeJSON(w, http.StatusOK, TenantStats{
		Name:    t.name,
		Cache:   t.eng.Stats(),
		Apply:   t.eng.ApplyStats(),
		Journal: t.journalStats(),
	})
}

// errBadRequest tags client errors for the 400 mapping.
var errBadRequest = errors.New("bad request")

// queryBool reads an optional boolean query parameter: absent or empty is
// false, "0" and "false" are false too, and what strconv.ParseBool rejects
// is a bad request.
func queryBool(q url.Values, name string) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("%w: bad %s %q", errBadRequest, name, v)
	}
	return b, nil
}

// decodeOptionalBody decodes a JSON body into v, treating an empty body as
// the zero value.
func decodeOptionalBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return nil
}

// httpError maps a registry/engine error to a status code and JSON body.
// Overload signals carry Retry-After so well-behaved clients back off.
func (s *Server) httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrTenantNotFound), errors.Is(err, ec.ErrNoClass), errors.Is(err, verify.ErrUnknownRouter):
		code = http.StatusNotFound
	case errors.Is(err, ErrTenantExists):
		code = http.StatusConflict
	case errors.Is(err, ErrQueryBusy), errors.Is(err, ErrTooManyTenants):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrApplyQueueFull), errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, errBadRequest), errors.Is(err, bonsai.ErrInvalidDelta):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
