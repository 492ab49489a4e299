package bonsai

import (
	"fmt"
	"time"

	"bonsai/internal/build"
	"bonsai/internal/topo"
	"bonsai/internal/verify"
)

// Every result type is an answer, provenance, or an answer part embedded
// first beside its provenance. An answer depends on the configuration and the
// request alone, so two answers to one question compare equal with ==
// however the engines reached the configuration; provenance (durations, cache
// and adoption counts, where an abstraction came from) may differ. Embedding
// the answer part first keeps every JSON key in place.

// ClassSelector narrows an operation to a subset of the destination
// equivalence classes. The zero value selects every class.
type ClassSelector struct {
	// Prefix selects the single class owning this destination prefix
	// (e.g. "10.0.3.0/24").
	Prefix string `json:"prefix,omitempty"`
	// MaxClasses bounds the classes processed; 0 means all.
	MaxClasses int `json:"max_classes,omitempty"`
}

// StoreStats is the abstraction store's part of CacheStats: how many
// classes it answered by each path (fresh refinement, symmetry transport, the
// identity cache, adoption across a delta), and its misses, evictions and
// byte accounting under the memory budget (WithMemoryBudget).
type StoreStats = build.CacheStats

// CacheStats is a snapshot of the engine's cross-class abstraction store
// and its reach memo. It is provenance whole.
type CacheStats struct {
	StoreStats
	// ReachMemoHits counts memo lookups answered from an entry already
	// solved in their snapshot (or by joining its solve in flight);
	// ReachMemoMisses counts the lookups that solved one: a fingerprint
	// group compressed, a class concretely. Reach, ReachConcrete, Routes and
	// each class of a compressed Verify look up once. Both are cumulative
	// over the engine's lifetime and reported by Engine.Stats only (a
	// report's Cache snapshot leaves them zero).
	ReachMemoHits   int64 `json:"reach_memo_hits,omitempty"`
	ReachMemoMisses int64 `json:"reach_memo_misses,omitempty"`
}

// BDDStats is a snapshot of the engine's BDD layer: the live footprint of
// its compiler pool's unique tables and the cumulative operation-cache
// behaviour. Per-compiler counters fold into these aggregates when a
// compiler is released back to the pool or retired. It is provenance whole.
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

// NetworkInfo describes the concrete network an engine is serving. It is an
// answer whole.
type NetworkInfo struct {
	Name       string `json:"name,omitempty"`
	Routers    int    `json:"routers"`
	Links      int    `json:"links"`
	Interfaces int    `json:"interfaces"`
	Classes    int    `json:"classes"`
}

// CompressAnswer is the answer part of a CompressReport: the network and the
// sizes of the selected classes' compressed topologies.
type CompressAnswer struct {
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
}

// CompressReport summarises one Compress call: its answer and the
// provenance beside it.
type CompressReport struct {
	CompressAnswer
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
}

// VerifyAnswer is the answer part of a Verify report: the mode, the class
// and pair counts and the abstract sizes (sizes are answers).
type VerifyAnswer = verify.Answer

// Report is the structured result of a Verify call: its answer and the
// provenance beside it.
type Report struct {
	VerifyAnswer
	// CompressTime is the portion of Total spent compressing (bonsai mode):
	// only the fingerprint groups this call solved add to it, so a group a
	// read already solved in the snapshot adds nothing.
	CompressTime time.Duration `json:"compress_ns"`
	Total        time.Duration `json:"total_ns"`
	// Cache snapshots the deduplication cache after the call; its Fresh is
	// the engine's cumulative count of abstractions computed by refinement.
	Cache CacheStats `json:"cache"`
}

func (r *Report) String() string {
	s := fmt.Sprintf("%s: classes=%d pairs=%d reachable=%d compress=%v total=%v",
		r.Mode, r.Classes, r.Pairs, r.ReachablePairs, r.CompressTime, r.Total)
	if r.Mode == "bonsai" {
		s += fmt.Sprintf(" distinctAbs=%d", r.Cache.Fresh)
	}
	return s
}

// Stability names which stable solutions of a class an answer counted:
// unique (the empty string, left off the wire), "multiple", "none" or
// "unknown" (see verify.Stability).
type Stability = verify.Stability

// ReachAnswer is the answer part of a ReachResult. A compressed and a
// concrete answer to one query are equal exactly when CP-equivalence holds,
// except that for a router whose group has several copies the compressed
// answer folds them all. Reachable means the source delivers in every stable
// solution the class counted, ReachableSome in at least one (left out for a
// unique class, as is Stable, which names the counted set). The rest are the
// paper's §4.4 facts, holding if they hold in some solution at some copy:
// the fewest and most hops of a delivering path (MaxHops left out where a
// loop is reachable, so no path has a longest), a reachable forwarding loop,
// no permitted next hop, and paths of which some deliver and some do not.
type ReachAnswer struct {
	Reachable             bool      `json:"reachable"`
	ReachableSome         bool      `json:"reachable_some,omitempty"`
	Stable                Stability `json:"stable,omitempty"`
	MinHops               int       `json:"min_hops"`
	MaxHops               int       `json:"max_hops,omitempty"`
	Loop                  bool      `json:"loop,omitempty"`
	BlackHole             bool      `json:"black_hole,omitempty"`
	MultipathInconsistent bool      `json:"multipath_inconsistent,omitempty"`
}

// reachAnswer is router u's answer in a class's analysis.
func reachAnswer(a verify.ClassAnswer, u topo.NodeID) ReachAnswer {
	r := a.Router(u)
	return ReachAnswer{
		Reachable:             r.Every,
		ReachableSome:         r.Reaches && a.Stable != verify.Unique,
		Stable:                a.Stable,
		MinHops:               int(max(r.MinHops, 0)),
		MaxHops:               int(max(r.MaxHops, 0)),
		Loop:                  r.Loop,
		BlackHole:             r.BlackHole,
		MultipathInconsistent: r.Inconsistent,
	}
}

// ReachResult answers a single reachability query.
type ReachResult struct {
	ReachAnswer
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

// RolesReport counts the behavioral router roles of the network. It is an
// answer whole.
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
// class on the concrete network: the first stable solution the class
// counts, and the verdict naming the set it came from (omitted when unique).
// It is an answer whole; it holds slices, so it compares with
// reflect.DeepEqual rather than ==.
type RoutesReport struct {
	Dest   string       `json:"dest"`
	Routes []RouteEntry `json:"routes"`
	Stable Stability    `json:"stable,omitempty"`
}

// AdoptStats is what the adoption sweep of an incremental update did with
// each class: carried across the delta (Adopted, of which Unchanged reused
// the cached abstraction outright and Reassembled rebuilt its abstract graph
// over the new topology, no refinement either way), invalidated by it
// (Invalidated, listed in InvalidatedPrefixes; they recompress lazily on
// their next query), or new (NewClasses: newly originated prefixes, or
// classes never yet compressed); RemovedClasses counts pre-delta classes
// that no longer exist.
type AdoptStats = build.AdoptStats

// ApplyReport summarises one incremental update. It is provenance whole: how
// the engine carried its cache across the delta, not what it answers after.
type ApplyReport struct {
	// Classes is the class count of the post-delta network.
	Classes int `json:"classes"`
	AdoptStats
	// Degraded reports that the delta's blast radius exceeded the adoption
	// sweep's profitable range, so the engine swapped to a cold successor
	// snapshot (every class recompresses lazily) instead of running
	// per-class stability checks. Degradation is graceful: queries stay
	// correct, memory stays bounded, only warm-cache coverage is lost.
	Degraded bool `json:"degraded,omitempty"`
	// Coalesced counts the edits of the batch that its net change does not
	// hold: superseded by a later edit, or returning a link or router to
	// the state the batch began from. It is zero for an Apply that changes
	// what it edits.
	Coalesced int           `json:"coalesced,omitempty"`
	Duration  time.Duration `json:"duration_ns"`
}
