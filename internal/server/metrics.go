// Metric wiring: /metrics is written at scrape time from live state — the
// tenants the registry holds (their engines' Stats and BDDStats, journals,
// recovery info, admission semaphores and counters), the shared pool and the
// fan-out — so a tenant's series exist exactly while the registry holds it,
// and the engine and journal numbers always agree with GET …/stats. What has
// to accumulate between scrapes lives with its subject: per-op latency
// histograms and per-reason rejection counts in an opStats on each tenant
// (and one on the Server for tenant "-"), adopted and invalidated sums on
// the tenant. internal/metrics renders the text format.
package server

import (
	"net/http"
	"slices"
	"strings"
	"sync/atomic"

	"bonsai"
	"bonsai/internal/journal"
	"bonsai/internal/metrics"
	"bonsai/internal/sched"
)

// ops is the closed set of bonsaid_request_seconds' op label. The ops from
// firstQueryOp on are the queries tenantQuery admits.
var ops = [...]string{"list", "open", "info", "close", "apply", "replay",
	"verify", "compress", "reach", "routes", "roles", "stats"}

const firstQueryOp = 6

// The closed set of bonsaid_rejected_total's reason label.
const (
	rejectDraining = iota
	rejectQueryQuota
	rejectApplyQueue
)

var rejectReasons = [...]string{"draining", "query_quota", "apply_queue"}

// latencyBuckets: 100µs .. ~100s exponential.
var latencyBuckets = metrics.ExpBuckets(0.0001, 4, 11)

// opStats is what one tenant label accumulates between scrapes. A histogram
// is rendered after its first observation, a rejection count after its
// first rejection.
type opStats struct {
	seconds  [len(ops)]*metrics.Histogram
	rejected [len(rejectReasons)]atomic.Int64
}

func newOpStats() *opStats {
	st := new(opStats)
	for i := range st.seconds {
		st.seconds[i] = metrics.NewHistogram(latencyBuckets)
	}
	return st
}

// scraped is one tenant as a scrape reads it.
type scraped struct {
	*tenant
	cache bonsai.CacheStats
	bdd   bonsai.BDDStats
	js    journal.Stats
	rec   RecoveryInfo // zero unless recovery is set
}

// queried reports whether the tenant has admitted a query: its
// inflight_queries series has nothing to say before that.
func (x *scraped) queried() bool {
	for _, h := range x.ops.seconds[firstQueryOp:] {
		if h.Count() > 0 {
			return true
		}
	}
	return len(x.queries) > 0
}

// tenantFamilies are the families labelled by tenant alone, in exposition
// order. A value's bool is false while its series has nothing to say.
var tenantFamilies = []struct {
	name, typ, help string
	value           func(*scraped) (float64, bool)
}{
	{"bonsaid_inflight_queries", "gauge", "Queries currently admitted per tenant.",
		func(x *scraped) (float64, bool) { return float64(len(x.queries)), x.queried() }},
	// Of the admitted writes one is executing, or will be next.
	{"bonsaid_apply_queue_depth", "gauge", "Admitted writes waiting behind the executing one.",
		func(x *scraped) (float64, bool) { return float64(max(0, len(x.writes)-1)), true }},

	{"bonsai_cache_served_total", "gauge", "Compression calls answered from the identity cache.",
		func(x *scraped) (float64, bool) { return float64(x.cache.Served), true }},
	{"bonsai_cache_misses_total", "gauge", "Compression calls that had to compute.",
		func(x *scraped) (float64, bool) { return float64(x.cache.Misses), true }},
	{"bonsai_cache_hit_rate", "gauge", "served / (served + misses).",
		func(x *scraped) (float64, bool) {
			tot := x.cache.Served + x.cache.Misses
			return float64(x.cache.Served) / float64(tot), tot > 0
		}},
	{"bonsai_cache_evictions_total", "gauge", "Entries evicted under memory pressure.",
		func(x *scraped) (float64, bool) { return float64(x.cache.Evictions), true }},
	{"bonsai_cache_live_bytes", "gauge", "Retained abstraction bytes.",
		func(x *scraped) (float64, bool) { return float64(x.cache.LiveBytes), true }},
	{"bonsai_cache_peak_bytes", "gauge", "High-water retained abstraction bytes.",
		func(x *scraped) (float64, bool) { return float64(x.cache.PeakBytes), true }},
	{"bonsai_adopted_total", "gauge", "Abstractions carried across incremental updates.",
		func(x *scraped) (float64, bool) { return float64(x.cache.Adopted), true }},
	{"bonsai_invalidated_total", "counter", "Cached classes invalidated by applied deltas.",
		func(x *scraped) (float64, bool) { return float64(x.invalidated.Load()), true }},
	// Both sums come from the same /apply and /replay reports; the current
	// snapshot's Adopted restarts at every apply.
	{"bonsai_adoption_ratio", "gauge", "adopted / (adopted + invalidated) across the engine's lifetime.",
		func(x *scraped) (float64, bool) {
			a, i := x.adopted.Load(), x.invalidated.Load()
			return float64(a) / float64(a+i), a+i > 0
		}},
	{"bonsai_compress_ns_per_class", "gauge", "Mean wall-clock nanoseconds per compressed class.",
		func(x *scraped) (float64, bool) {
			cls := x.compressClasses.Load()
			return float64(x.compressNs.Load()) / float64(cls), cls > 0
		}},
	{"bonsai_coalesce_ratio", "gauge", "Delta edits received / applied across replay streams.",
		func(x *scraped) (float64, bool) {
			applied := x.editsApplied.Load()
			return float64(x.editsReceived.Load()) / float64(applied), applied > 0
		}},
	{"bonsai_reach_memo_hits_total", "gauge", "Reach queries answered from a class already solved in their snapshot.",
		func(x *scraped) (float64, bool) { return float64(x.cache.ReachMemoHits), true }},
	{"bonsai_reach_memo_misses_total", "gauge", "Reach queries that solved their class (first of a class per snapshot).",
		func(x *scraped) (float64, bool) { return float64(x.cache.ReachMemoMisses), true }},

	{"bonsai_bdd_nodes_live", "gauge", "Live BDD nodes across the engine's compiler pool.",
		func(x *scraped) (float64, bool) { return float64(x.bdd.NodesLive), true }},
	{"bonsai_bdd_unique_load_factor", "gauge", "Live nodes / unique-table slots across the pool.",
		func(x *scraped) (float64, bool) { return x.bdd.LoadFactor, true }},
	{"bonsai_bdd_managers", "gauge", "BDD managers (compilers) the engine holds.",
		func(x *scraped) (float64, bool) { return float64(x.bdd.Managers), true }},
	{"bonsai_bdd_cache_hits_total", "gauge", "BDD operation-cache hits across the engine's lifetime.",
		func(x *scraped) (float64, bool) { return float64(x.bdd.CacheHits), true }},
	{"bonsai_bdd_cache_misses_total", "gauge", "BDD operation-cache misses across the engine's lifetime.",
		func(x *scraped) (float64, bool) { return float64(x.bdd.CacheMisses), true }},
	{"bonsai_bdd_cache_overwrites_total", "gauge", "BDD op-cache stores that evicted a colliding entry (lossy-cache churn).",
		func(x *scraped) (float64, bool) { return float64(x.bdd.CacheOverwrites), true }},

	{"bonsaid_journal_appends_total", "gauge", "Deltas appended to the write-ahead journal this process.",
		func(x *scraped) (float64, bool) { return float64(x.js.Appends), x.jrnl != nil }},
	{"bonsaid_journal_fsyncs_total", "gauge", "Journal fsync calls this process.",
		func(x *scraped) (float64, bool) { return float64(x.js.Fsyncs), x.jrnl != nil }},
	{"bonsaid_journal_checkpoints_total", "gauge", "Durable checkpoint replacements this process.",
		func(x *scraped) (float64, bool) { return float64(x.js.Checkpoints), x.jrnl != nil }},
	{"bonsaid_journal_tail_records", "gauge", "Journal records past the checkpoint — the replay cost of a crash right now.",
		func(x *scraped) (float64, bool) { return float64(x.js.TailRecords), x.jrnl != nil }},
	{"bonsaid_journal_segment_bytes", "gauge", "On-disk journal segment bytes (excluding the checkpoint).",
		func(x *scraped) (float64, bool) { return float64(x.js.SegmentBytes), x.jrnl != nil }},
	{"bonsaid_journal_replayed_deltas_total", "counter", "Deltas replayed from the journal tail during startup recovery.",
		func(x *scraped) (float64, bool) { return float64(x.rec.ReplayedDeltas), x.recovery != nil }},
	{"bonsaid_journal_gaps_total", "counter", "Recoveries that found a corrupt record with valid history past it.",
		func(x *scraped) (float64, bool) { return 1, x.rec.Gap }},
}

// handleMetrics writes every family from the tenants the registry holds
// now, sorted by name, then the pool and the fan-out.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.reg.mu.Lock()
	tenants := make([]*scraped, 0, len(s.reg.tenants))
	for _, t := range s.reg.tenants {
		if t != nil {
			tenants = append(tenants, &scraped{tenant: t})
		}
	}
	s.reg.mu.Unlock()
	slices.SortFunc(tenants, func(a, b *scraped) int { return strings.Compare(a.name, b.name) })
	names, sets := []string{"-"}, []*opStats{s.ops}
	for _, x := range tenants {
		x.cache, x.bdd = x.eng.Stats(), x.eng.BDDStats()
		if x.jrnl != nil {
			x.js = x.jrnl.Stats()
		}
		if x.recovery != nil {
			x.rec = *x.recovery
		}
		names, sets = append(names, x.name), append(sets, x.ops)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	mw := metrics.NewWriter(w)
	mw.Family("bonsaid_request_seconds", "histogram", "Request latency by tenant and operation.")
	for i, st := range sets {
		for op, h := range st.seconds {
			if h.Count() > 0 {
				mw.Histogram(h, "tenant", names[i], "op", ops[op])
			}
		}
	}
	mw.Family("bonsaid_rejected_total", "counter", "Requests rejected by admission control, by reason.")
	for i, st := range sets {
		for r := range st.rejected {
			if n := st.rejected[r].Load(); n > 0 {
				mw.Sample(float64(n), "tenant", names[i], "reason", rejectReasons[r])
			}
		}
	}
	for _, f := range tenantFamilies {
		mw.Family(f.name, f.typ, f.help)
		for _, x := range tenants {
			if v, ok := f.value(x); ok {
				mw.Sample(v, "tenant", x.name)
			}
		}
	}

	var ps bonsai.SharedPoolStats
	if s.pool != nil {
		ps = s.pool.Stats()
	}
	sc := sched.GlobalStats()
	for _, g := range []struct {
		name, help string
		v          int64
	}{
		{"bonsai_pool_live_bytes", "Shared pool: retained abstraction bytes across all tenants.", ps.LiveBytes},
		{"bonsai_pool_peak_bytes", "Shared pool: high-water retained bytes.", ps.PeakBytes},
		{"bonsai_pool_ceiling_bytes", "Shared pool: configured global budget.", ps.CeilingBytes},
		{"bonsai_pool_cross_evictions_total", "Shared pool: entries evicted by cross-tenant pressure.", ps.CrossEvictions},
		{"bonsai_sched_items_total", "Classes handed to the parallel compression worker pool.", sc.Items},
		{"bonsai_sched_followers_total", "Pooled classes handed out after every fingerprint's first class.", sc.Followers},
	} {
		mw.Family(g.name, "gauge", g.help)
		mw.Sample(float64(g.v))
	}
}
