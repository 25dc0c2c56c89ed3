package main

import "fmt"

// The metric registry. BENCHMARK.json at the checkout root declares the
// same names, units and directions; TestRegistryMatchesBenchmarkJSON keeps
// the two in step. Every workload reports every metric: aggregate prints
// exactly the metrics declared for the mode and fails the run if one of
// them was not measured.

// metricDef declares one metric.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"; for fidelity metrics only a reading aid
	bound  float64 // end-to-end only: tolerated worsening, share of the median
}

// A workload is one input: the benchmark whose generated streams feed all
// four paths of a unit (llc, uarch, kv-direct, kv-http).
type workloadDef struct {
	name  string
	bench string // workloads.Spec name
}

var allWorkloads = []workloadDef{
	// Pointer chasing over a footprint that overflows every cache: the
	// policies separate widely and about 93% of kv GETs miss.
	{"mcf", "429.mcf"},
	// A Zipf hot set a little above the caches: about 45% of kv GETs hit,
	// so reads and the hit path weigh more.
	{"xalancbmk", "483.xalancbmk"},
}

// zoo is the policy set the llc path replays, Belady last.
var zoo = []string{"lru", "drrip", "ship", "hawkeye", "rlr", "belady"}

// endToEnd lists what a user of each path sees, measured untraced.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.1},
	{name: "replay_access_per_s", unit: "accesses/s", better: "higher", bound: 0.25},
	{name: "train_access_per_s", unit: "accesses/s", better: "higher", bound: 0.25},
	{name: "infer_access_per_s", unit: "accesses/s", better: "higher", bound: 0.25},
	{name: "sim_instr_per_s", unit: "instr/s", better: "higher", bound: 0.25},
	{name: "engine_ops_per_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "http_req_per_s", unit: "req/s", better: "higher", bound: 0.25},
	{name: "hit_pct", unit: "%", better: "higher", bound: 0.1},
	{name: "p50_us", unit: "us", better: "lower", bound: 0.2},
	{name: "p90_us", unit: "us", better: "lower", bound: 0.25},
}

// perLayer lists the traced run's per-layer and fidelity metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "higher"} }
	m := []metricDef{
		lo("workloads.gen_s", "s"),
		lo("go.alloc_bytes_per_op", "B/op"),
		lo("go.gc_cycles", "count"),
		lo("bench.trace_overhead_pct", "%"),
		lo("policy.oracle_build_s", "s"),
		lo("rl.trainer_new_s", "s"),
	}
	for _, p := range zoo {
		m = append(m,
			lo("cachesim.ns_per_access."+p, "ns"),
			lo("cachesim.self_ns_per_access."+p, "ns"),
			lo("policy.victim_ns."+p, "ns"),
			lo("policy.update_ns."+p, "ns"),
			lo("policy.victim_calls."+p, "count"),
			lo("policy.update_calls."+p, "count"),
			hi("cachesim.hit_pct."+p, "%"),
		)
	}
	m = append(m,
		lo("rl.step_ns.p50", "ns"),
		lo("rl.step_ns.p99", "ns"),
		lo("rl.decisions", "count"),
		lo("rl.batches", "count"),
		lo("nn.forward_batch_ns", "ns"),
		lo("nn.backward_batch_ns", "ns"),
		lo("nn.quant_forward_ns", "ns"),
		lo("rl.int8_ns_per_access", "ns"),
		hi("rl.agent_hit_pct", "%"),
		lo("rl.loss", "mse"),

		lo("uarch.ns_per_instr", "ns"),
		lo("uarch.ns_per_llc_access", "ns"),
		lo("uarch.self_ns_per_instr", "ns"),
		lo("policy.victim_ns."+uarchPolicy, "ns"),
		lo("policy.update_ns."+uarchPolicy, "ns"),
		lo("policy.victim_calls."+uarchPolicy, "count"),
		lo("policy.update_calls."+uarchPolicy, "count"),
	)
	for c := 0; c < uarchCores; c++ {
		m = append(m, hi(fmt.Sprintf("uarch.ipc.core%d", c), "instr/cycle"))
	}
	m = append(m,
		hi("uarch.ipc_geomean", "instr/cycle"),
		lo("uarch.demand_mpki", "1/kinstr"),
		hi("uarch.llc_demand_hit_pct", "%"),
		lo("uarch.llc_accesses.load", "count"),
		lo("uarch.llc_accesses.rfo", "count"),
		lo("uarch.llc_accesses.prefetch", "count"),
		lo("uarch.llc_accesses.writeback", "count"),

		lo("server.new_s", "s"),
		lo("server.get_hit_ns.p50", "ns"),
		lo("server.get_hit_ns.p99", "ns"),
		lo("server.get_miss_ns.p50", "ns"),
		lo("server.get_miss_ns.p99", "ns"),
		lo("server.put_ns.p50", "ns"),
		lo("server.put_ns.p99", "ns"),
		lo("server.handler_us.p50", "us"),
		lo("server.handler_us.p99", "us"),
		lo("http.client_us.p99", "us"),
		lo("http.overhead_us.p50", "us"),
		lo("http.overhead_us.p99", "us"),
		lo("server.evictions", "count"),
		lo("server.budget_evictions", "count"),
		lo("server.budget_evict_share", "ratio"),
		lo("server.bypasses", "count"),
		hi("server.entries", "count"),
		lo("server.dedup_ratio", "ratio"),
	)
	return m
}
