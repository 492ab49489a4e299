package bonsai

import (
	"fmt"
	"time"
)

// ClassSelector narrows an operation to a subset of the destination
// equivalence classes. The zero value selects every class.
type ClassSelector struct {
	// Prefix selects the single class owning this destination prefix
	// (e.g. "10.0.3.0/24").
	Prefix string `json:"prefix,omitempty"`
	// MaxClasses bounds the classes processed; 0 means all.
	MaxClasses int `json:"max_classes,omitempty"`
}

// CacheStats is a snapshot of the engine's cross-class abstraction store.
type CacheStats struct {
	// Fresh counts abstractions computed by full refinement.
	Fresh int `json:"fresh"`
	// Transported counts abstractions served by symmetry transport.
	Transported int64 `json:"transported"`
	// Served counts compression calls answered from the identity cache (the
	// store's hit counter).
	Served int64 `json:"served"`
	// Adopted counts abstractions carried across an incremental update by
	// partition re-validation instead of recompression.
	Adopted int `json:"adopted"`
	// Misses counts compression calls that had to compute: first touches
	// and recompressions of classes the memory budget evicted.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped under the memory budget
	// (WithMemoryBudget); LiveBytes and PeakBytes are the store's current
	// and high-water accounted footprint, BudgetBytes the configured
	// ceiling (0 = unbounded).
	Evictions   int64 `json:"evictions"`
	LiveBytes   int64 `json:"live_bytes"`
	PeakBytes   int64 `json:"peak_bytes"`
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// DuplicateFresh counts duplicated refinements for one fingerprint —
	// zero in a healthy engine (the abstraction store single-flights each
	// fingerprint; tests assert it).
	DuplicateFresh int64 `json:"duplicate_fresh,omitempty"`
	// ReachMemoHits counts Reach/ReachConcrete queries answered from a class
	// already solved in their snapshot (or by joining its solve in flight);
	// ReachMemoMisses counts the queries that solved a class. Both are
	// cumulative over the engine's lifetime and reported by Engine.Stats
	// only (a report's Cache snapshot leaves them zero).
	ReachMemoHits   int64 `json:"reach_memo_hits,omitempty"`
	ReachMemoMisses int64 `json:"reach_memo_misses,omitempty"`
}

// BDDStats is a snapshot of the engine's BDD layer: the live footprint of
// its compiler pool's unique tables and the cumulative operation-cache
// behaviour. Per-compiler counters fold into these aggregates when a
// compiler is released back to the pool or retired.
type BDDStats struct {
	// NodesLive sums the live BDD nodes (including canonical seed prefixes)
	// across the engine's compilers, as of each compiler's last release.
	NodesLive int64 `json:"nodes_live"`
	// UniqueSlots sums unique-table capacities; LoadFactor is
	// NodesLive/UniqueSlots.
	UniqueSlots int64   `json:"unique_slots"`
	LoadFactor  float64 `json:"load_factor"`
	// Managers counts compilers the engine has created and not yet retired.
	Managers int64 `json:"managers"`
	// CacheHits/CacheMisses count op-cache probes; CacheOverwrites counts
	// stores that evicted a colliding entry (the lossy-cache churn signal).
	CacheHits       uint64 `json:"cache_hits"`
	CacheMisses     uint64 `json:"cache_misses"`
	CacheOverwrites uint64 `json:"cache_overwrites"`
}

// NetworkInfo describes the concrete network an engine is serving.
type NetworkInfo struct {
	Name       string `json:"name,omitempty"`
	Routers    int    `json:"routers"`
	Links      int    `json:"links"`
	Interfaces int    `json:"interfaces"`
	Classes    int    `json:"classes"`
}

// CompressReport summarises one Compress call.
type CompressReport struct {
	Network NetworkInfo `json:"network"`
	// ClassesCompressed is how many destination classes this call
	// compressed (Network.Classes counts all of them).
	ClassesCompressed int `json:"classes_compressed"`
	// SumAbstractNodes and SumAbstractLinks total the compressed topology
	// sizes across the compressed classes.
	SumAbstractNodes int `json:"sum_abstract_nodes"`
	SumAbstractLinks int `json:"sum_abstract_links"`
	// NodeRatio and LinkRatio are the average concrete/abstract
	// compression ratios (higher is smaller).
	NodeRatio float64 `json:"node_ratio"`
	LinkRatio float64 `json:"link_ratio"`
	// Cache snapshots the deduplication cache after the call.
	Cache CacheStats `json:"cache"`
	// BDDSetup is the time spent preparing policy compilers (zero when the
	// engine's pool was already warm); Duration is the compression time.
	BDDSetup time.Duration `json:"bdd_setup_ns"`
	Duration time.Duration `json:"duration_ns"`
}

// AvgAbstractNodes returns the mean abstract node count per compressed
// class.
func (r *CompressReport) AvgAbstractNodes() float64 {
	if r.ClassesCompressed == 0 {
		return 0
	}
	return float64(r.SumAbstractNodes) / float64(r.ClassesCompressed)
}

// AvgAbstractLinks returns the mean abstract link count per compressed
// class.
func (r *CompressReport) AvgAbstractLinks() float64 {
	if r.ClassesCompressed == 0 {
		return 0
	}
	return float64(r.SumAbstractLinks) / float64(r.ClassesCompressed)
}

// VerifyRequest configures a Verify call. The zero value verifies all-pairs
// reachability for every class on the compressed network.
type VerifyRequest struct {
	// Concrete runs the verification on the uncompressed network (the
	// baseline the paper's Figure 12 compares against).
	Concrete bool `json:"concrete,omitempty"`
	// PerPair re-analyses the control plane for every (source, class)
	// query, modelling a per-query verifier such as Minesweeper.
	PerPair bool `json:"per_pair,omitempty"`
	// MaxClasses bounds the classes verified; 0 means all.
	MaxClasses int `json:"max_classes,omitempty"`
	// Workers overrides the engine's worker count for this call.
	Workers int `json:"workers,omitempty"`
}

// Report is the structured result of a Verify call.
type Report struct {
	// Mode is "concrete" or "bonsai".
	Mode    string `json:"mode"`
	Classes int    `json:"classes"`
	// Pairs counts the (source, class) queries checked; ReachablePairs how
	// many delivered traffic.
	Pairs          int64 `json:"pairs"`
	ReachablePairs int64 `json:"reachable_pairs"`
	// AbstractNodeSum totals abstract node counts across classes (bonsai
	// mode).
	AbstractNodeSum int64 `json:"abstract_node_sum,omitempty"`
	// DistinctAbstractions is provenance, not an answer: the engine's
	// cumulative count of abstractions computed by refinement (bonsai mode).
	// It depends on cache history — a warm relation store, an earlier
	// Compress, adoption across a delta — so two engines over the same
	// configuration may report different values for the same verdict.
	DistinctAbstractions int `json:"distinct_abstractions,omitempty"`
	// CompressTime is the portion of Total spent compressing (bonsai mode).
	CompressTime time.Duration `json:"compress_ns"`
	Total        time.Duration `json:"total_ns"`
	// Cache snapshots the deduplication cache after the call.
	Cache CacheStats `json:"cache"`
}

func (r *Report) String() string {
	s := fmt.Sprintf("%s: classes=%d pairs=%d reachable=%d compress=%v total=%v",
		r.Mode, r.Classes, r.Pairs, r.ReachablePairs, r.CompressTime, r.Total)
	if r.Mode == "bonsai" {
		s += fmt.Sprintf(" distinctAbs=%d", r.DistinctAbstractions)
	}
	return s
}

// ReachResult answers a single reachability query.
type ReachResult struct {
	Reachable bool `json:"reachable"`
	// Compressed reports whether the answer came from the compressed
	// network.
	Compressed bool          `json:"compressed"`
	Duration   time.Duration `json:"duration_ns"`
}

// RolesRequest configures a Roles call. The zero value erases unused
// community tags (the paper's §8 attribute abstraction) and includes static
// routes in the role signature.
type RolesRequest struct {
	// NoErase counts unused community tags as role-distinguishing.
	NoErase bool `json:"no_erase,omitempty"`
	// NoStatics excludes static routes from the role signature.
	NoStatics bool `json:"no_statics,omitempty"`
}

// RolesReport counts the behavioral router roles of the network.
type RolesReport struct {
	Roles   int `json:"roles"`
	Routers int `json:"routers"`
}

// RouteEntry is one router's converged state for a destination class.
type RouteEntry struct {
	Router string `json:"router"`
	// Label renders the router's stable routing attribute; "<nil>" means no
	// route.
	Label    string   `json:"label"`
	NextHops []string `json:"next_hops,omitempty"`
}

// RoutesReport is the converged control-plane solution for one destination
// class on the concrete network.
type RoutesReport struct {
	Dest   string       `json:"dest"`
	Routes []RouteEntry `json:"routes"`
}

// ApplyReport summarises one incremental update.
type ApplyReport struct {
	// Classes is the class count of the post-delta network.
	Classes int `json:"classes"`
	// Adopted counts cached classes carried across the delta after their
	// partitions passed the stability checks; of those, Unchanged reused
	// the cached abstraction object outright and Reassembled had its
	// abstract graph rebuilt over the new topology (no refinement either
	// way).
	Adopted     int `json:"adopted"`
	Unchanged   int `json:"unchanged"`
	Reassembled int `json:"reassembled"`
	// Invalidated counts cached classes the delta actually affected; they
	// recompress lazily on their next query. InvalidatedPrefixes lists
	// them.
	Invalidated         int      `json:"invalidated"`
	InvalidatedPrefixes []string `json:"invalidated_prefixes,omitempty"`
	// NewClasses counts post-delta classes that had no cached abstraction
	// (newly originated prefixes, or classes never yet compressed);
	// RemovedClasses counts pre-delta classes that no longer exist.
	NewClasses     int `json:"new_classes"`
	RemovedClasses int `json:"removed_classes"`
	// Degraded reports that the delta's blast radius exceeded the adoption
	// sweep's profitable range, so the engine swapped to a cold successor
	// snapshot (every class recompresses lazily) instead of running
	// per-class stability checks. Degradation is graceful: queries stay
	// correct, memory stays bounded, only warm-cache coverage is lost.
	Degraded bool `json:"degraded,omitempty"`
	// CoalescedAway lists edits that were received by an ApplyStream batch
	// but never applied — superseded by a later writer or cancelled by
	// returning to the pre-batch state. The list is capped; Coalesced is
	// the full count. Both are zero for direct Apply calls.
	CoalescedAway []string      `json:"coalesced_away,omitempty"`
	Coalesced     int           `json:"coalesced,omitempty"`
	Duration      time.Duration `json:"duration_ns"`
}
