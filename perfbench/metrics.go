package main

import "math"

var nan = math.NaN()

// metricDef is one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees, reported by untraced
// runs. BENCHMARK.json lists the same names, units, directions and bounds
// (a unit test keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"restart_s", "s", "lower", 0.25},
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"recommend_p50_us", "us", "lower", 0.25},
	{"recommend_p99_us", "us", "lower", 0.25},
	{"observe_p50_us", "us", "lower", 0.25},
	{"observe_p99_us", "us", "lower", 0.25},
	{"regret_pct", "%", "lower", 0.1},
	{"predict_rmse_s", "s", "lower", 0.25},
	{"heap_bytes_per_stream", "bytes", "lower", 0.1},
	{"cpu_us_per_decision", "us", "lower", 0.25},
}

// httpRoutes are the serving routes the HTTP workloads drive.
var httpRoutes = []string{"recommend", "observe", "recommend_batch", "observe_batch"}

// perLayer are the single-layer metrics, reported by traced runs.
var perLayer = func() []metricDef {
	ds := []metricDef{
		{name: "regress.update_ns", unit: "ns", better: "lower"},
		{name: "regress.predict_ns", unit: "ns", better: "lower"},
		{name: "core.recommend_ns", unit: "ns", better: "lower"},
		{name: "core.observe_ns", unit: "ns", better: "lower"},
		{name: "policy.select_ns", unit: "ns", better: "lower"},
		{name: "policy.update_ns", unit: "ns", better: "lower"},
		{name: "schema.encode_ns", unit: "ns", better: "lower"},
		{name: "reward.score_ns", unit: "ns", better: "lower"},
		{name: "drift.add_ns", unit: "ns", better: "lower"},
		{name: "drift.detections", unit: "count", better: "lower"},
		{name: "armset.cache_lookups", unit: "count", better: "higher"},
		{name: "armset.cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "serve.recommend_ns", unit: "ns", better: "lower"},
		{name: "serve.observe_ns", unit: "ns", better: "lower"},
		{name: "serve.allocs_per_decision", unit: "count", better: "lower"},
		{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
		{name: "serve.batch_ns_per_decision", unit: "ns", better: "lower"},
		{name: "serve.create_first_us", unit: "us", better: "lower"},
		{name: "serve.create_last_us", unit: "us", better: "lower"},
		{name: "serve.save_s", unit: "s", better: "lower"},
		{name: "serve.load_s", unit: "s", better: "lower"},
		{name: "serve.snapshot_bytes_per_stream", unit: "bytes", better: "lower"},
	}
	for _, r := range httpRoutes {
		ds = append(ds,
			metricDef{name: "http." + r + ".rtt_p50_us", unit: "us", better: "lower"},
			metricDef{name: "http." + r + ".handler_p50_us", unit: "us", better: "lower"},
			metricDef{name: "http." + r + ".transport_p50_us", unit: "us", better: "lower"},
		)
	}
	return append(ds,
		metricDef{name: "http.handler_allocs_per_request", unit: "count", better: "lower"},
		metricDef{name: "dist.router_hop_us", unit: "us", better: "lower"},
		metricDef{name: "dist.create_broadcast_us", unit: "us", better: "lower"},
		metricDef{name: "dist.sync_round_ms", unit: "ms", better: "lower"},
		metricDef{name: "dist.sync_rounds", unit: "count", better: "higher"},
		metricDef{name: "dist.bootstrap_s", unit: "s", better: "lower"},
		metricDef{name: "trace.overhead_pct", unit: "%", better: "lower"},
	)
}()

// result is what one run of a workload measured and checked.
type result struct {
	workload  string
	digest    string
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	checks    []check
	notes     []string // report lines: sample counts, reference figures
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// correct reports whether every check passed.
func (r *result) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}
