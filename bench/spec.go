package main

import (
	"encoding/json"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
)

// kind selects the driver a workload runs under: what one primary op is.
type kind int

const (
	kindCold  kind = iota // op = one cold verdict (parse, open, compress, verify, close)
	kindRead              // op = one served reach, 1 client
	kindChurn             // op = one acked single-delta apply, a reader beside the writer
)

// workload is one committed set of inputs. The op counts are per round and
// fixed: a run repeats whole rounds until its measuring time is used up, so
// every round of every run measures the same amount of work.
type workload struct {
	name    string
	why     string
	kind    kind
	network func() *config.Network

	// tailPct is the upper percentile reported as op_tail_ms: the highest
	// round percentile with at least ten samples beyond it over a run at
	// the committed op counts.
	tailPct float64
	// poolClasses is how many seeded destination classes the concrete
	// reference covers; queries are drawn from pool x all sources.
	poolClasses int
	// absNodes and absLinks are the sums of abstract sizes over all classes:
	// the paper's compression result, which must repeat exactly.
	absNodes, absLinks int

	opsPerRound int // cold verdicts, queries, flap+origin pairs
	burstLen    int // deltas per /replay burst (every burstEvery-th churn round)

	// Traced-run section sizes: the workload's own path gets the most.
	traceCold, traceQueries, traceWrites, traceRecoveries int
}

const (
	originShare   = 12 // one in originShare write pairs is an origin add/remove pair
	burstEvery    = 4  // every burstEvery-th serve-churn round ends with a burst and the answer checks
	readsPerWrite = 8  // reads serve-churn issues after each delta
	samplePairs   = 64 // (src, dest) pairs asked at every churn round end and per recovery
	speedupPool   = 8  // classes timed concrete vs compressed for verify.speedup_x
	setupRepeats  = 4  // segments of an untraced run, each with a timed set-up of its own
)

var workloads = []workload{
	{
		name: "cold-fattree", kind: kindCold, tailPct: 75, poolClasses: 16, absNodes: 6 * 200, absLinks: 5 * 200, opsPerRound: 6, burstLen: 32,
		why:       "batch use on a fully symmetric 500-router fat-tree: 2 refinements, 198 symmetry transports, so parse, build.New, fingerprint and transport do the work",
		network:   func() *config.Network { return netgen.Fattree(20, netgen.PolicyShortestPath) },
		traceCold: 3, traceQueries: 48, traceWrites: 6, traceRecoveries: 2,
	},
	{
		name: "cold-dc", kind: kindCold, tailPct: 75, poolClasses: 16, absNodes: 9180, absLinks: 7935, opsPerRound: 8, burstLen: 32,
		why:       "the same cold path on the 197-router datacenter: 171 refinements, 1100 identity hits, no transport, so core refinement and the abstract solve dominate",
		network:   func() *config.Network { return netgen.Datacenter(netgen.DCOptions{}) },
		traceCold: 3, traceQueries: 48, traceWrites: 6, traceRecoveries: 2,
	},
	{
		name: "serve-read", kind: kindRead, tailPct: 99, poolClasses: 96, absNodes: 69440, absLinks: 89600, opsPerRound: 300, burstLen: 16,
		why: "the query path on a warm 670-router WAN tenant behind loopback HTTP, where the engine and not HTTP is the cost; bypasses compress, apply and journal",
		network: func() *config.Network {
			return netgen.WAN(netgen.WANOptions{Backbone: 30, Sites: 80, SwitchesPerSite: 7})
		},
		traceCold: 1, traceQueries: 256, traceWrites: 4, traceRecoveries: 2,
	},
	{
		name: "serve-churn", kind: kindChurn, tailPct: 90, poolClasses: 72, absNodes: 6 * 72, absLinks: 5 * 72, opsPerRound: 36, burstLen: 256,
		why:       "the apply path on a durable 180-router tenant: single-delta applies, each followed by 8 reads that pay for what it invalidated; queries are cheap here, so the serving tax shows",
		network:   func() *config.Network { return netgen.Fattree(12, netgen.PolicyShortestPath) },
		traceCold: 1, traceQueries: 96, traceWrites: 48, traceRecoveries: 3,
	},
}

// tiny is w at smoke-test size: the network and the code paths stay those
// of the real run, the pools and op counts shrink.
func (w workload) tiny() *workload {
	w.poolClasses = min(w.poolClasses, 8)
	w.opsPerRound = map[kind]int{kindCold: 2, kindRead: 40, kindChurn: 6}[w.kind]
	w.burstLen = 8
	w.traceCold, w.traceQueries, w.traceWrites, w.traceRecoveries = 1, 16, 4, 1
	return &w
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one catalogue row; BENCHMARK.json repeats these rows and the
// test checks the two agree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	// exact marks a per-layer count the sequential traced run must repeat
	// bit for bit for a seed. Counts that depend on goroutine timing (work
	// steals, what a live stream happened to coalesce) are not exact.
	exact bool
}

// endToEnd is what a user of the system sees. Every workload reports every
// metric; "op" is the workload's primary op (see kind).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.05},
	{name: "peak_heap_mb", unit: "MiB", better: "lower", bound: 0.25},
}

// perLayer is reported by the traced run only. The prefix of a name is its
// layer (a package of this module; "engine" is the root package).
var perLayer = []metricDef{
	{name: "config.parse_ms", unit: "ms", better: "lower"},
	{name: "config.bytes", unit: "count", better: "lower", exact: true},
	{name: "ec.classes_ms", unit: "ms", better: "lower"},
	{name: "ec.classfor_us", unit: "us", better: "lower"},
	{name: "ec.classes", unit: "count", better: "lower", exact: true},
	{name: "build.new_ms", unit: "ms", better: "lower"},
	{name: "build.fingerprint_us", unit: "us", better: "lower"},
	{name: "build.compress_fresh_ms", unit: "ms", better: "lower"},
	{name: "build.compress_transport_us", unit: "us", better: "lower"},
	{name: "build.compress_hit_us", unit: "us", better: "lower"},
	{name: "build.fresh", unit: "count", better: "lower", exact: true},
	{name: "build.transported", unit: "count", better: "higher", exact: true},
	{name: "build.served", unit: "count", better: "higher", exact: true},
	{name: "build.transport_share", unit: "ratio", better: "higher", exact: true},
	{name: "build.duplicate_fresh", unit: "count", better: "lower", exact: true},
	{name: "build.store_live_mb", unit: "MiB", better: "lower", exact: true},
	{name: "build.store_evictions", unit: "count", better: "lower", exact: true},
	{name: "build.abstract_instance_us", unit: "us", better: "lower"},
	{name: "build.adopt_ms", unit: "ms", better: "lower"},
	{name: "build.adopt_share", unit: "ratio", better: "higher", exact: true},
	{name: "build.relstore_save_ms", unit: "ms", better: "lower"},
	{name: "build.relstore_load_ms", unit: "ms", better: "lower"},
	{name: "build.relstore_mb", unit: "MiB", better: "lower"},
	{name: "build.relstore_accept_share", unit: "ratio", better: "higher", exact: true},
	{name: "policy.edgekeys_cold_ms", unit: "ms", better: "lower"},
	{name: "policy.edgekeys_warm_us", unit: "us", better: "lower"},
	{name: "bdd.nodes", unit: "count", better: "lower", exact: true},
	{name: "bdd.cache_hit_share", unit: "ratio", better: "higher", exact: true},
	{name: "bdd.overwrite_share", unit: "ratio", better: "lower", exact: true},
	{name: "core.refine_ms", unit: "ms", better: "lower"},
	{name: "core.refine_iterations", unit: "count", better: "lower", exact: true},
	{name: "core.node_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "core.link_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "core.abs_nodes_sum", unit: "count", better: "lower", exact: true},
	{name: "srp.solve_abs_us", unit: "us", better: "lower"},
	{name: "srp.solve_conc_ms", unit: "ms", better: "lower"},
	{name: "dataplane.fib_us", unit: "us", better: "lower"},
	{name: "verify.allpairs_ms", unit: "ms", better: "lower"},
	{name: "verify.speedup_x", unit: "ratio", better: "higher"},
	{name: "sched.items", unit: "count", better: "lower", exact: true},
	{name: "sched.followers", unit: "count", better: "higher"},
	{name: "sched.steals", unit: "count", better: "lower"},
	{name: "engine.open_ms", unit: "ms", better: "lower"},
	{name: "engine.compress_ms", unit: "ms", better: "lower"},
	{name: "engine.verify_ms", unit: "ms", better: "lower"},
	{name: "engine.reach_us", unit: "us", better: "lower"},
	{name: "engine.apply_ms", unit: "ms", better: "lower"},
	{name: "engine.lazy_recompress_ms", unit: "ms", better: "lower"},
	{name: "engine.applyall_deltas_per_s", unit: "1/s", better: "higher"},
	{name: "engine.coalesced_share", unit: "ratio", better: "higher"},
	{name: "engine.degraded_batches", unit: "count", better: "lower", exact: true},
	{name: "journal.append_us", unit: "us", better: "lower"},
	{name: "journal.fsyncs_per_delta", unit: "ratio", better: "lower", exact: true},
	{name: "journal.bytes_per_delta", unit: "count", better: "lower", exact: true},
	{name: "journal.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "journal.replay_us_per_record", unit: "us", better: "lower"},
	{name: "journal.checkpoints", unit: "count", better: "lower", exact: true},
	{name: "server.healthz_rtt_us", unit: "us", better: "lower"},
	{name: "server.reach_rtt_us", unit: "us", better: "lower"},
	{name: "server.reach_tax_us", unit: "us", better: "lower"},
	{name: "server.apply_rtt_ms", unit: "ms", better: "lower"},
	{name: "server.apply_tax_us", unit: "us", better: "lower"},
	{name: "server.replay_rtt_ms", unit: "ms", better: "lower"},
	{name: "server.replay_deltas_per_s", unit: "1/s", better: "higher"},
	{name: "server.recover_crash_ms", unit: "ms", better: "lower"},
	{name: "server.recover_sealed_ms", unit: "ms", better: "lower"},
	{name: "server.rejected_429", unit: "count", better: "lower", exact: true},
	{name: "server.rejected_503", unit: "count", better: "lower", exact: true},
	{name: "env.nproc", unit: "count", better: "higher", exact: true},
	{name: "env.gomaxprocs", unit: "count", better: "higher", exact: true},
	{name: "env.steal_share", unit: "ratio", better: "lower"},
	{name: "env.rounds_dropped", unit: "count", better: "lower"},
	{name: "env.calib_ms", unit: "ms", better: "lower"},
	{name: "env.trace_overhead_share", unit: "ratio", better: "lower"},
}

// layers are the module's packages the catalogue must cover.
var layers = []string{"config", "ec", "build", "policy", "bdd", "core", "srp",
	"dataplane", "verify", "sched", "engine", "journal", "server", "env"}

// runSeconds is how long one run measures when the accepting driver runs it.
const runSeconds = 28

// contractJSON renders BENCHMARK.json from the catalogue above; the test
// fails when the committed file differs.
func contractJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always encode
	}
	return append(out, '\n')
}
