// Metric wiring: the daemon's Prometheus-style catalog, fed from three
// layers — HTTP admission (latency histograms, rejections, queue depths),
// the engines' cache statistics (hit/eviction rates, adoption ratios,
// ns/class, coalesce ratios, sampled at scrape time so counters are always
// consistent with Engine.Stats), and the shared memory pool (live/peak
// bytes, cross-tenant evictions). Everything is stdlib-only text exposition
// via internal/metrics.
package server

import (
	"net/http"

	"bonsai"
	"bonsai/internal/metrics"
	"bonsai/internal/sched"
)

// metricSet bundles the daemon's instruments.
type metricSet struct {
	reg *metrics.Registry

	// HTTP layer. ops is the closed set of op labels, filled as the router
	// registers its handlers.
	ops        []string
	reqSeconds *metrics.HistogramVec // {tenant, op}
	rejected   *metrics.CounterVec   // {tenant, reason}
	inflight   *metrics.GaugeVec     // {tenant}
	queueDepth *metrics.GaugeVec     // {tenant}

	// Engine layer, refreshed at scrape time.
	cacheServed     *metrics.GaugeVec // {tenant}
	cacheMisses     *metrics.GaugeVec
	cacheHitRate    *metrics.GaugeVec
	cacheEvictions  *metrics.GaugeVec
	cacheLive       *metrics.GaugeVec
	cachePeak       *metrics.GaugeVec
	adopted         *metrics.GaugeVec
	invalidated     *metrics.CounterVec // accumulated from apply reports
	adoptionRatio   *metrics.GaugeVec
	nsPerClass      *metrics.GaugeVec
	coalesceRatio   *metrics.GaugeVec
	reachMemoHits   *metrics.GaugeVec
	reachMemoMisses *metrics.GaugeVec

	// BDD layer, refreshed from Engine.BDDStats at scrape time: live
	// unique-table footprint and op-cache behaviour per tenant.
	bddNodes      *metrics.GaugeVec // {tenant}
	bddLoad       *metrics.GaugeVec
	bddManagers   *metrics.GaugeVec
	bddHits       *metrics.GaugeVec
	bddMisses     *metrics.GaugeVec
	bddOverwrites *metrics.GaugeVec

	// Durability layer: gauges refreshed from journal.Stats at scrape time,
	// counters accumulated at recovery / gap detection.
	journalAppends  *metrics.GaugeVec   // {tenant}
	journalFsyncs   *metrics.GaugeVec   // {tenant}
	journalCkpts    *metrics.GaugeVec   // {tenant}
	journalTail     *metrics.GaugeVec   // {tenant}
	journalBytes    *metrics.GaugeVec   // {tenant}
	journalReplayed *metrics.CounterVec // {tenant}
	journalGaps     *metrics.CounterVec // {tenant}

	// Pool layer.
	poolLive    *metrics.Gauge
	poolPeak    *metrics.Gauge
	poolCeiling *metrics.Gauge
	poolCross   *metrics.Gauge

	// Fan-out layer (process-wide).
	schedItems     *metrics.Gauge
	schedFollowers *metrics.Gauge
}

// latencyBuckets: 100µs .. ~100s exponential.
var latencyBuckets = metrics.ExpBuckets(0.0001, 4, 11)

func newMetricSet() *metricSet {
	r := metrics.NewRegistry()
	m := &metricSet{
		reg: r,
		reqSeconds: r.HistogramVec("bonsaid_request_seconds",
			"Request latency by tenant and operation.", latencyBuckets, "tenant", "op"),
		rejected: r.CounterVec("bonsaid_rejected_total",
			"Requests rejected by admission control, by reason.", "tenant", "reason"),
		inflight: r.GaugeVec("bonsaid_inflight_queries",
			"Queries currently admitted per tenant.", "tenant"),
		queueDepth: r.GaugeVec("bonsaid_apply_queue_depth",
			"Deltas waiting in the bounded apply queue.", "tenant"),

		cacheServed: r.GaugeVec("bonsai_cache_served_total",
			"Compression calls answered from the identity cache.", "tenant"),
		cacheMisses: r.GaugeVec("bonsai_cache_misses_total",
			"Compression calls that had to compute.", "tenant"),
		cacheHitRate: r.GaugeVec("bonsai_cache_hit_rate",
			"served / (served + misses).", "tenant"),
		cacheEvictions: r.GaugeVec("bonsai_cache_evictions_total",
			"Entries evicted under memory pressure.", "tenant"),
		cacheLive: r.GaugeVec("bonsai_cache_live_bytes",
			"Retained abstraction bytes.", "tenant"),
		cachePeak: r.GaugeVec("bonsai_cache_peak_bytes",
			"High-water retained abstraction bytes.", "tenant"),
		adopted: r.GaugeVec("bonsai_adopted_total",
			"Abstractions carried across incremental updates.", "tenant"),
		invalidated: r.CounterVec("bonsai_invalidated_total",
			"Cached classes invalidated by applied deltas.", "tenant"),
		adoptionRatio: r.GaugeVec("bonsai_adoption_ratio",
			"adopted / (adopted + invalidated) across the engine's lifetime.", "tenant"),
		nsPerClass: r.GaugeVec("bonsai_compress_ns_per_class",
			"Mean wall-clock nanoseconds per compressed class.", "tenant"),
		coalesceRatio: r.GaugeVec("bonsai_coalesce_ratio",
			"Delta edits received / applied across replay streams.", "tenant"),
		reachMemoHits: r.GaugeVec("bonsai_reach_memo_hits_total",
			"Reach queries answered from a class already solved in their snapshot.", "tenant"),
		reachMemoMisses: r.GaugeVec("bonsai_reach_memo_misses_total",
			"Reach queries that solved their class (first of a class per snapshot).", "tenant"),

		bddNodes: r.GaugeVec("bonsai_bdd_nodes_live",
			"Live BDD nodes across the engine's compiler pool.", "tenant"),
		bddLoad: r.GaugeVec("bonsai_bdd_unique_load_factor",
			"Live nodes / unique-table slots across the pool.", "tenant"),
		bddManagers: r.GaugeVec("bonsai_bdd_managers",
			"BDD managers (compilers) the engine holds.", "tenant"),
		bddHits: r.GaugeVec("bonsai_bdd_cache_hits_total",
			"BDD operation-cache hits across the engine's lifetime.", "tenant"),
		bddMisses: r.GaugeVec("bonsai_bdd_cache_misses_total",
			"BDD operation-cache misses across the engine's lifetime.", "tenant"),
		bddOverwrites: r.GaugeVec("bonsai_bdd_cache_overwrites_total",
			"BDD op-cache stores that evicted a colliding entry (lossy-cache churn).", "tenant"),

		journalAppends: r.GaugeVec("bonsaid_journal_appends_total",
			"Deltas appended to the write-ahead journal this process.", "tenant"),
		journalFsyncs: r.GaugeVec("bonsaid_journal_fsyncs_total",
			"Journal fsync calls this process.", "tenant"),
		journalCkpts: r.GaugeVec("bonsaid_journal_checkpoints_total",
			"Durable checkpoint replacements this process.", "tenant"),
		journalTail: r.GaugeVec("bonsaid_journal_tail_records",
			"Journal records past the checkpoint — the replay cost of a crash right now.", "tenant"),
		journalBytes: r.GaugeVec("bonsaid_journal_segment_bytes",
			"On-disk journal segment bytes (excluding the checkpoint).", "tenant"),
		journalReplayed: r.CounterVec("bonsaid_journal_replayed_deltas_total",
			"Deltas replayed from the journal tail during startup recovery.", "tenant"),
		journalGaps: r.CounterVec("bonsaid_journal_gaps_total",
			"Recoveries that found a corrupt record with valid history past it.", "tenant"),

		poolLive: r.Gauge("bonsai_pool_live_bytes",
			"Shared pool: retained abstraction bytes across all tenants."),
		poolPeak: r.Gauge("bonsai_pool_peak_bytes",
			"Shared pool: high-water retained bytes."),
		poolCeiling: r.Gauge("bonsai_pool_ceiling_bytes",
			"Shared pool: configured global budget."),
		poolCross: r.Gauge("bonsai_pool_cross_evictions_total",
			"Shared pool: entries evicted by cross-tenant pressure."),

		schedItems: r.Gauge("bonsai_sched_items_total",
			"Classes handed to the parallel compression worker pool."),
		schedFollowers: r.Gauge("bonsai_sched_followers_total",
			"Pooled classes handed out after every fingerprint's first class."),
	}
	return m
}

// rejectReasons is the closed set of bonsaid_rejected_total's reason label.
var rejectReasons = []string{"draining", "query_quota", "apply_queue"}

// dropTenant removes a closed tenant's series.
func (m *metricSet) dropTenant(name string) {
	for _, op := range m.ops {
		m.reqSeconds.Delete(name, op)
	}
	for _, reason := range rejectReasons {
		m.rejected.Delete(name, reason)
	}
	for _, v := range []*metrics.CounterVec{m.invalidated, m.journalReplayed, m.journalGaps} {
		v.Delete(name)
	}
	for _, v := range []*metrics.GaugeVec{
		m.inflight, m.queueDepth, m.cacheServed, m.cacheMisses, m.cacheHitRate,
		m.cacheEvictions, m.cacheLive, m.cachePeak, m.adopted, m.adoptionRatio,
		m.nsPerClass, m.coalesceRatio, m.reachMemoHits, m.reachMemoMisses,
		m.bddNodes, m.bddLoad, m.bddManagers, m.bddHits, m.bddMisses,
		m.bddOverwrites, m.journalAppends, m.journalFsyncs, m.journalCkpts,
		m.journalTail, m.journalBytes,
	} {
		v.Delete(name)
	}
}

// collect refreshes scrape-time gauges from the live tenants, the pool and
// the fan-out, then renders the registry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.reg.mu.Lock()
	tenants := make([]*tenant, 0, len(s.reg.tenants))
	for _, t := range s.reg.tenants {
		if t != nil {
			tenants = append(tenants, t)
		}
	}
	s.reg.mu.Unlock()

	for _, t := range tenants {
		st := t.eng.Stats()
		m := s.metrics
		m.cacheServed.With(t.name).Set(float64(st.Served))
		m.cacheMisses.With(t.name).Set(float64(st.Misses))
		if tot := st.Served + st.Misses; tot > 0 {
			m.cacheHitRate.With(t.name).Set(float64(st.Served) / float64(tot))
		}
		m.cacheEvictions.With(t.name).Set(float64(st.Evictions))
		m.cacheLive.With(t.name).Set(float64(st.LiveBytes))
		m.cachePeak.With(t.name).Set(float64(st.PeakBytes))
		m.adopted.With(t.name).Set(float64(st.Adopted))
		m.reachMemoHits.With(t.name).Set(float64(st.ReachMemoHits))
		m.reachMemoMisses.With(t.name).Set(float64(st.ReachMemoMisses))
		if inv := m.invalidated.With(t.name).Value(); st.Adopted > 0 || inv > 0 {
			m.adoptionRatio.With(t.name).Set(float64(st.Adopted) / (float64(st.Adopted) + float64(inv)))
		}
		if cls := t.compressClasses.Load(); cls > 0 {
			m.nsPerClass.With(t.name).Set(float64(t.compressNs.Load()) / float64(cls))
		}
		if applied := t.editsApplied.Load(); applied > 0 {
			m.coalesceRatio.With(t.name).Set(float64(t.editsReceived.Load()) / float64(applied))
		}
		bs := t.eng.BDDStats()
		m.bddNodes.With(t.name).Set(float64(bs.NodesLive))
		m.bddLoad.With(t.name).Set(bs.LoadFactor)
		m.bddManagers.With(t.name).Set(float64(bs.Managers))
		m.bddHits.With(t.name).Set(float64(bs.CacheHits))
		m.bddMisses.With(t.name).Set(float64(bs.CacheMisses))
		m.bddOverwrites.With(t.name).Set(float64(bs.CacheOverwrites))
		// Of the admitted writes one is executing, or will be next.
		m.queueDepth.With(t.name).Set(float64(max(0, len(t.writes)-1)))
		if t.jrnl != nil {
			js := t.jrnl.Stats()
			m.journalAppends.With(t.name).Set(float64(js.Appends))
			m.journalFsyncs.With(t.name).Set(float64(js.Fsyncs))
			m.journalCkpts.With(t.name).Set(float64(js.Checkpoints))
			m.journalTail.With(t.name).Set(float64(js.TailRecords))
			m.journalBytes.With(t.name).Set(float64(js.SegmentBytes))
		}
	}
	if s.pool != nil {
		ps := s.pool.Stats()
		s.metrics.poolLive.Set(float64(ps.LiveBytes))
		s.metrics.poolPeak.Set(float64(ps.PeakBytes))
		s.metrics.poolCeiling.Set(float64(ps.CeilingBytes))
		s.metrics.poolCross.Set(float64(ps.CrossEvictions))
	}
	sc := sched.GlobalStats()
	s.metrics.schedItems.Set(float64(sc.Items))
	s.metrics.schedFollowers.Set(float64(sc.Followers))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// recordApply folds an apply/replay outcome into the per-tenant counters.
func (m *metricSet) recordApply(t *tenant, rep *bonsai.ApplyReport) {
	if rep == nil {
		return
	}
	m.invalidated.With(t.name).Add(int64(rep.Invalidated))
}
