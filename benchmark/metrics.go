package main

// metricDef is one catalogue entry. BENCHMARK.json at the repository
// root lists exactly these, and a test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// workloadDefs names the four workloads and why each exists.
var workloadDefs = []workloadDef{
	{"whatif-point", "10-query tenant, 2 clients, 1-4 indexes per request, a tenth never seen before: the request path is ~72 % of a request and Cache.Cost ~28 %"},
	{"whatif-wide", "200-query tenant, 1 client, 8-16 indexes per request: the same /whatif code with Cache.Cost at ~71 % of request CPU and the fan-out on the critical path"},
	{"tenant-churn", "6 tenants behind a residency cap of 3 with on-disk snapshots: a third of requests cold-load, plus forced and incremental reloads beside warm reads"},
	{"design-batch", "cache construction for 10 star and 8 shape queries, snapshot round trip, six /recommend and ten /explain: the optimizer and the advisor, which no what-if workload runs"},
}

// endToEnd are the gated metrics. The driver's contract wants every one
// of them from every workload and never zero, so each is defined by what
// it means on all four:
//
//   - setup_s: the program's set-up per round (environment load, cache
//     build or first tenant loads, serve.New, warm-up); the benchmark's
//     golden computation is excluded. Work moved into snapshot publish
//     shows here.
//   - ops_per_s: verified operations per second of the closed loop —
//     /whatif on the what-if workloads, scripted operations (whole
//     scripts, whole cycles) on tenant-churn and design-batch. It is the
//     gate on the operations that have no metric of their own: cold loads
//     are two thirds of a tenant-churn script, /recommend a good third of
//     a design-batch cycle.
//   - request_p50_us: median latency of the workload's most frequent
//     request — /whatif (warm-resident only on tenant-churn); on
//     design-batch /explain, each query's median averaged over the ten.
//   - build_p50_ms: constructing the workload's caches, the paper's
//     headline — BuildAllSlim of the served queries on the what-if
//     workloads (five per round, one of them the set-up's), the forced
//     /reload on tenant-churn, step (a) of a cycle on design-batch.
//   - heap_live_mb: HeapAlloc after runtime.GC() at window end minus the
//     same before set-up: what the round's server and caches retain.
//   - snapshot_bytes: the size of the workload's snapshot file(s). It
//     repeats exactly, so its bound is the smallest that can be written:
//     any growth is a regression (space trades against decode time).
//
// The other bounds are three times the widest quartile spread seen over
// ten runs with ten seeds in the 2-core sandbox: runs minutes apart
// differ that much there on the same code, so a tighter bound would
// report noise as regressions.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"request_p50_us", "us", lower, 0.25},
	{"build_p50_ms", "ms", lower, 0.25},
	{"heap_live_mb", "MB", lower, 0.15},
	{"snapshot_bytes", "B", lower, 1e-6},
}

// perLayer are the ungated metrics, grouped by the package they
// describe. A workload whose requests never reach a layer reports 0.
var perLayer = []metricDef{
	// Operation latencies only one workload has. An end-to-end metric
	// must exist on every workload, so these cannot be gated one by one;
	// their workload's ops_per_s, whose script fixes the mix, moves with
	// them in proportion to their share of the script (README).
	{"coldload_p50_ms", "ms", lower, 0},
	{"rebuild_p50_ms", "ms", lower, 0},
	{"reload_incr_p50_ms", "ms", lower, 0},
	{"recommend_p50_ms", "ms", lower, 0},
	{"explain_p50_us", "us", lower, 0},
	{"fail_share", "ratio", lower, 0},
	{"churn.heavy_wall_pct", "%", lower, 0},

	{"serve.handler_us", "us", lower, 0},
	{"serve.whatif_call_us", "us", lower, 0},
	{"serve.encode_us", "us", lower, 0},
	{"serve.ingress_us", "us", lower, 0},
	{"serve.span_decode_us", "us", lower, 0},
	{"serve.span_route_us", "us", lower, 0},
	{"serve.span_load_us", "us", lower, 0},
	{"serve.span_fanout_us", "us", lower, 0},
	{"serve.span_encode_us", "us", lower, 0},
	{"serve.span_advisor_us", "us", lower, 0},
	{"serve.span_optimize_us", "us", lower, 0},
	{"serve.span_unaccounted_us", "us", lower, 0},
	{"serve.trace_overhead_us", "us", lower, 0},
	{"serve.handler_p99_us", "us", lower, 0},
	{"serve.handler_p999_us", "us", lower, 0},
	{"serve.allocs_per_req", "count", lower, 0},
	{"serve.bytes_per_req", "B", lower, 0},
	{"serve.response_bytes", "B", lower, 0},
	{"serve.new_static_ms", "ms", lower, 0},
	{"serve.cold_loads", "count", lower, 0},
	{"serve.evictions", "count", lower, 0},
	{"serve.cold_load_share", "ratio", lower, 0},
	{"serve.reloads_completed", "count", higher, 0},
	{"serve.reloads_skipped", "count", lower, 0},
	{"serve.queries_reused", "count", higher, 0},
	{"serve.queries_rebuilt", "count", lower, 0},
	{"serve.rejected", "count", lower, 0},
	{"serve.errors", "count", lower, 0},

	{"core.fan_dispatch_us_n10", "us", lower, 0},
	{"core.fan_dispatch_us_n200", "us", lower, 0},
	{"core.fan_dispatch_us_n1000", "us", lower, 0},
	{"core.build_all_slim_ms_w1", "ms", lower, 0},
	{"core.build_all_slim_ms_wmax", "ms", lower, 0},
	{"core.build_slim_ms.chain7", "ms", lower, 0},
	{"core.build_slim_ms.snowflake7", "ms", lower, 0},
	{"core.build_slim_ms.star7", "ms", lower, 0},
	{"core.build_slim_ms.clique5", "ms", lower, 0},
	{"core.build_slim_ms.random6", "ms", lower, 0},
	{"core.build_slim_ms.cycle6", "ms", lower, 0},
	{"core.build_slim_ms.wide-orders", "ms", lower, 0},
	{"core.build_slim_ms.wide-group", "ms", lower, 0},
	{"core.optimizer_calls_per_query", "count", lower, 0},

	{"optimizer.analysis_us", "us", lower, 0},
	{"optimizer.export_all_ms.q10", "ms", lower, 0},
	{"optimizer.single_call_us", "us", lower, 0},
	{"optimizer.wide_chain17_ms", "ms", lower, 0},
	{"optimizer.enum_states", "count", lower, 0},
	{"optimizer.paths_considered", "count", lower, 0},
	{"optimizer.paths_pruned", "count", higher, 0},
	{"optimizer.frontier_inserts", "count", lower, 0},
	{"optimizer.frontier_drops", "count", higher, 0},
	{"optimizer.frontier_evictions", "count", lower, 0},
	{"optimizer.plans_exported", "count", lower, 0},

	{"inum.cost_us_per_request", "us", lower, 0},
	{"inum.cost_ns_per_plan", "ns", lower, 0},
	{"inum.cost_first_touch_us", "us", lower, 0},
	{"inum.cost_memo_hit_us", "us", lower, 0},
	{"inum.plans_total", "count", lower, 0},
	{"inum.entry_bytes", "B", lower, 0},

	{"costmatrix.new_us", "us", lower, 0},
	{"costmatrix.evaluate_candidate_ns", "ns", lower, 0},
	{"costmatrix.apply_us", "us", lower, 0},
	{"costmatrix.query_evals", "count", lower, 0},
	{"costmatrix.query_skips", "count", higher, 0},

	{"advisor.run_ms", "ms", lower, 0},
	{"advisor.generate_candidates_ms", "ms", lower, 0},
	{"advisor.candidates", "count", lower, 0},
	{"advisor.picks", "count", lower, 0},

	{"plancache.encode_us", "us", lower, 0},
	{"plancache.decode_us", "us", lower, 0},
	{"plancache.build_caches_us", "us", lower, 0},
	{"plancache.save_ms", "ms", lower, 0},
	{"plancache.load_us", "us", lower, 0},
	{"plancache.saveload_ms", "ms", lower, 0},
	{"plancache.fingerprint_us", "us", lower, 0},
	{"plancache.snapshot_bytes", "B", lower, 0},
	{"plancache.bytes_per_plan", "B", lower, 0},

	{"sql.parse_bind_us", "us", lower, 0},

	{"workload.star_schema_us", "us", lower, 0},
	{"workload.queries_us", "us", lower, 0},
	{"workload.loader_us", "us", lower, 0},
	{"workload.distinct_specs", "count", lower, 0},

	{"obs.metrics_scrape_us", "us", lower, 0},
	{"obs.metrics_bytes", "B", lower, 0},

	{"host.spin_ms", "ms", lower, 0},
	{"host.gomaxprocs", "count", higher, 0},
	{"host.gc_cycles", "count", lower, 0},
	{"host.gc_pause_ms", "ms", lower, 0},
	{"host.golden_s", "s", lower, 0},

	// Each layer's share of the traced replay's time (self time: a
	// span minus the union of its children; parallel query spans summed
	// as CPU time).
	{"share.serve_pct", "%", lower, 0},
	{"share.core_pct", "%", lower, 0},
	{"share.inum_pct", "%", lower, 0},
	{"share.core_optimizer_pct", "%", lower, 0},
	{"share.advisor_costmatrix_pct", "%", lower, 0},
	{"share.plancache_pct", "%", lower, 0},
	{"share.workload_pct", "%", lower, 0},
}

// allMetrics lists the whole catalogue, end-to-end first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// shareMetric maps a tracer layer to its share metric.
var shareMetric = map[string]string{
	"serve":              "share.serve_pct",
	"core":               "share.core_pct",
	"inum":               "share.inum_pct",
	"core+optimizer":     "share.core_optimizer_pct",
	"advisor+costmatrix": "share.advisor_costmatrix_pct",
	"plancache":          "share.plancache_pct",
	"workload":           "share.workload_pct",
}

// contract is the shape of BENCHMARK.json.
type contract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func catalogue() contract {
	return contract{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: 20,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
