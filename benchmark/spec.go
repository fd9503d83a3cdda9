package main

import "encoding/json"

// The benchmark's contract in one place: the workloads, the end-to-end
// metrics with their bounds, and the per-layer metrics with the prediction
// each carries. BENCHMARK.json at the repository root lists the same names;
// a self-test keeps the two equal.

// runSeconds is how long one run measures (BENCHMARK.json's run_seconds).
const runSeconds = 10

var workloads = []workload{
	embedDirect, spmvBuild, spmvIterate, serveHotW, serveColdW, serveFederationW,
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one reported number.
type metricDef struct {
	name, unit string
	// better is "higher" or "lower".
	better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before it counts as a regression; unused per layer.
	bound float64
	// exact marks simulated statistics: deterministic for a seed, so two
	// commits compare exactly, whatever the bound allows across seeds.
	exact bool
	// layer and moves are the per-layer prediction: which end-to-end metric
	// the number should move, on which workload, and where it must not.
	layer, moves string
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them; what an operation and an item are is stated
// per workload (workload.op, workload.item). H = host time, S = simulated.
//
// The bounds are what the 2-core sandbox this was sized on can resolve. Over
// ten runs with ten seeds the interquartile spread of an H metric was 3-19 %
// of its median (the machine drifts between a slower and a faster state for
// seconds at a time, and a best-of-rounds estimate spread wider than the
// median does), so H bounds sit at 25 %. An S metric repeats exactly for one
// seed and moves up to 2 % from seed to seed; its bound covers runs that
// differ in seed, and -compare still demands equality for equal inputs.
var endToEnd = []metricDef{
	// H: process start to first timed operation, warm-up excluded.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// H: queries (embedding, serving) or non-zeros (SpMV) completed per second.
	{name: "items_per_s", unit: "1/s", better: "higher", bound: 0.25},
	// H: median time of one operation. The 90th percentile is tail.op_p90_ms
	// per layer: it has no bound because it did not repeat within the 25 % a
	// bound may be (spread up to 40 % over ten runs when the host was busy).
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	// S: simulated PE cycles at 200 MHz per item. Shape-validated model only.
	{name: "sim_cycles_per_item", unit: "cycles", better: "lower", bound: 0.08, exact: true},
	// S: DRAM vector reads per query, or matrix and partial elements
	// streamed per non-zero.
	{name: "sim_reads_per_item", unit: "count", better: "lower", bound: 0.08, exact: true},
}

// perLayer are the numbers of single layers, from the traced serial pass,
// the traced round and the layer drills. A metric of a layer the workload
// does not run reads 0.
var perLayer = []metricDef{
	// client: the generator itself.
	{name: "client.encode_us_per_req", unit: "us", better: "lower", layer: "client", moves: "nothing; the generator's own share of the cores"},
	{name: "client.decode_us_per_req", unit: "us", better: "lower", layer: "client", moves: "nothing; the generator's own share of the cores"},
	{name: "client.lat_p99_ms", unit: "ms", better: "lower", layer: "client", moves: "nothing; p99 does not repeat within a tenth here, so it is not an end-to-end metric"},

	// tail: end-to-end tails, reported without a bound.
	{name: "tail.op_p90_ms", unit: "ms", better: "lower", layer: "tail", moves: "moved by what the predictions below name; watch it beside op_p50_ms"},

	// serve
	{name: "serve.handler_us_per_req", unit: "us", better: "lower", layer: "serve", moves: "op_p50_ms, items_per_s on serve_*"},
	{name: "serve.self_us_per_req", unit: "us", better: "lower", layer: "serve", moves: "op_p50_ms, items_per_s on serve_hot most, serve_federation and serve_cold less; never embed_direct or spmv_*"},
	{name: "serve.queue_us_per_req", unit: "us", better: "lower", layer: "serve", moves: "tail.op_p90_ms on serve_*"},
	{name: "serve.coalesce_us_per_req", unit: "us", better: "lower", layer: "serve", moves: "op_p50_ms on serve_*"},
	{name: "serve.cache_us_per_req", unit: "us", better: "lower", layer: "serve", moves: "op_p50_ms on serve_hot and serve_cold; 0 on serve_federation"},
	{name: "serve.backend_us_per_req", unit: "us", better: "lower", layer: "serve", moves: "op_p50_ms on serve_cold and serve_federation"},
	{name: "serve.coalesce_factor", unit: "ratio", better: "higher", layer: "serve", moves: "sim_reads_per_item on serve_*"},
	{name: "serve.batch_queries_mean", unit: "count", better: "higher", layer: "serve", moves: "sim_reads_per_item on serve_*"},
	{name: "serve.reads_per_query", unit: "count", better: "lower", layer: "serve", moves: "sim_reads_per_item on serve_*"},
	{name: "serve.naive_reads_per_query", unit: "count", better: "lower", layer: "serve", moves: "nothing; the input's own size"},
	{name: "serve.shed_total", unit: "count", better: "lower", layer: "serve", moves: "expected 0: no workload here overloads the queue"},
	{name: "serve.expired_in_queue_total", unit: "count", better: "lower", layer: "serve", moves: "expected 0"},
	{name: "serve.isolation_retries_total", unit: "count", better: "lower", layer: "serve", moves: "expected 0"},
	{name: "serve.degraded_total", unit: "count", better: "lower", layer: "serve", moves: "expected 0: no faults are injected"},

	// cache
	{name: "cache.hit_ratio", unit: "ratio", better: "higher", layer: "cache", moves: "op_p50_ms, sim_reads_per_item on serve_hot; 0 on serve_cold; not serve_federation (cache off)"},
	{name: "cache.evictions_per_kreq", unit: "count", better: "lower", layer: "cache", moves: "op_p50_ms on serve_cold"},
	{name: "cache.resident_mb", unit: "MB", better: "lower", layer: "cache", moves: "runtime.peak_heap_mb"},
	{name: "cache.get_ns", unit: "ns", better: "lower", layer: "cache", moves: "op_p50_ms on serve_hot"},
	{name: "cache.put_ns", unit: "ns", better: "lower", layer: "cache", moves: "op_p50_ms on serve_cold"},

	// router, federation
	{name: "router.lookup_us_per_batch", unit: "us", better: "lower", layer: "router", moves: "items_per_s, op_p50_ms, tail.op_p90_ms on serve_federation only"},
	{name: "router.overhead_ratio", unit: "ratio", better: "lower", layer: "router", moves: "items_per_s on serve_federation only"},
	{name: "router.shard_lookups_per_batch", unit: "count", better: "lower", layer: "router", moves: "tail.op_p90_ms on serve_federation: a batch waits for its slowest shard"},
	{name: "router.shard_imbalance", unit: "ratio", better: "lower", layer: "router", moves: "tail.op_p90_ms on serve_federation"},
	{name: "router.failovers_total", unit: "count", better: "lower", layer: "router", moves: "expected 0"},
	{name: "router.probes_total", unit: "count", better: "lower", layer: "router", moves: "expected 0"},
	{name: "router.degraded_batches_total", unit: "count", better: "lower", layer: "router", moves: "expected 0"},
	{name: "router.lost_queries_total", unit: "count", better: "lower", layer: "router", moves: "expected 0"},
	{name: "federation.lookup_us_per_batch", unit: "us", better: "lower", layer: "router", moves: "items_per_s, op_p50_ms on serve_federation only"},
	{name: "federation.fleet_lookups_per_batch", unit: "count", better: "lower", layer: "router", moves: "sim_cycles_per_item on serve_federation"},

	// rnet
	{name: "rnet.reduce_us", unit: "us", better: "lower", layer: "rnet", moves: "op_p50_ms on serve_federation (small share); nowhere else"},
	{name: "rnet.combines_per_batch", unit: "count", better: "lower", layer: "rnet", moves: "sim_cycles_per_item on serve_federation"},
	{name: "rnet.switch_fires_per_batch", unit: "count", better: "lower", layer: "rnet", moves: "sim_cycles_per_item on serve_federation"},
	{name: "rnet.link_transfers_per_batch", unit: "count", better: "lower", layer: "rnet", moves: "sim_cycles_per_item on serve_federation"},
	{name: "rnet.critical_path_cycles_mean", unit: "cycles", better: "lower", layer: "rnet", moves: "sim_cycles_per_item on serve_federation"},
	{name: "rnet.missing_children_total", unit: "count", better: "lower", layer: "rnet", moves: "expected 0"},

	// batch
	{name: "batch.build_us_per_hwbatch", unit: "us", better: "lower", layer: "batch", moves: "items_per_s on embed_direct; op_p50_ms on serve_cold"},
	{name: "batch.unique_fraction", unit: "ratio", better: "lower", layer: "batch", moves: "sim_reads_per_item on embedding workloads"},

	// fafnir (the tree engine)
	{name: "fafnir.timed_lookup_us.shared", unit: "us", better: "lower", layer: "fafnir", moves: "items_per_s, op_p50_ms on embed_direct; serve_hot and serve_federation less"},
	{name: "fafnir.timed_lookup_us.unique", unit: "us", better: "lower", layer: "fafnir", moves: "items_per_s, op_p50_ms on embed_direct and serve_cold"},
	{name: "fafnir.self_us_per_hwbatch", unit: "us", better: "lower", layer: "fafnir", moves: "items_per_s on embed_direct (largest share); about none on serve_hot"},
	{name: "fafnir.pe_reduces_per_query", unit: "count", better: "lower", layer: "fafnir", moves: "sim_cycles_per_item on embedding workloads"},
	{name: "fafnir.pe_compares_per_query", unit: "count", better: "lower", layer: "fafnir", moves: "sim_cycles_per_item on embedding workloads"},
	{name: "fafnir.parallel_speedup", unit: "ratio", better: "higher", layer: "fafnir", moves: "items_per_s on embed_direct; every sim_* stays exact"},
	{name: "fafnir.lower_bound_ratio", unit: "ratio", better: "lower", layer: "fafnir", moves: "sim_cycles_per_item on embedding workloads"},
	{name: "fafnir.stage_sum_violations", unit: "count", better: "lower", layer: "fafnir", moves: "must be 0"},

	// header, tensor
	{name: "header.setops_ns", unit: "ns", better: "lower", layer: "header", moves: "through fafnir.self_us_per_hwbatch: items_per_s on embed_direct"},
	{name: "header.codec_ns", unit: "ns", better: "lower", layer: "header", moves: "through fafnir.self_us_per_hwbatch: items_per_s on embed_direct"},
	{name: "tensor.apply_ns_per_vec", unit: "ns", better: "lower", layer: "tensor", moves: "through fafnir.self_us_per_hwbatch: items_per_s on embed_direct"},

	// dram
	{name: "dram.read_ns", unit: "ns", better: "lower", layer: "dram", moves: "items_per_s on embed_direct"},
	{name: "dram.sim_cycles_per_read", unit: "cycles", better: "lower", layer: "dram", moves: "sim_cycles_per_item everywhere"},
	{name: "dram.row_hit_ratio", unit: "ratio", better: "higher", layer: "dram", moves: "sim_cycles_per_item on embedding workloads"},
	{name: "dram.row_conflict_ratio", unit: "ratio", better: "lower", layer: "dram", moves: "sim_cycles_per_item on embedding workloads"},
	{name: "dram.bytes_per_query", unit: "B", better: "lower", layer: "dram", moves: "sim_reads_per_item on embedding workloads"},

	// embedding, memmap
	{name: "embedding.vector_ns", unit: "ns", better: "lower", layer: "embedding", moves: "items_per_s on embed_direct: leaf reads materialise vectors"},
	{name: "embedding.golden_us_per_query", unit: "us", better: "lower", layer: "embedding", moves: "setup_s; the cost of checking, not of the program"},
	{name: "memmap.addr_ns", unit: "ns", better: "lower", layer: "memmap", moves: "items_per_s on embed_direct"},

	// sparse
	{name: "sparse.generate_s.banded", unit: "s", better: "lower", layer: "sparse", moves: "items_per_s on spmv_build; setup_s on spmv_iterate; no embedding workload"},
	{name: "sparse.generate_s.graph", unit: "s", better: "lower", layer: "sparse", moves: "items_per_s on spmv_build; setup_s on spmv_iterate; no embedding workload"},
	{name: "sparse.generate_s.uniform", unit: "s", better: "lower", layer: "sparse", moves: "items_per_s on spmv_build only"},
	{name: "sparse.from_coo_ns_per_nnz", unit: "ns", better: "lower", layer: "sparse", moves: "items_per_s on spmv_build (most of the pass); setup_s on spmv_iterate"},
	{name: "sparse.column_chunk_ns_per_nnz", unit: "ns", better: "lower", layer: "sparse", moves: "items_per_s on spmv_iterate"},
	{name: "sparse.mulvec_ns_per_nnz", unit: "ns", better: "lower", layer: "sparse", moves: "items_per_s on spmv_build through Two-Step; the cost of checking elsewhere"},
	{name: "sparse.allocs_per_nnz", unit: "count", better: "lower", layer: "sparse", moves: "items_per_s on spmv_build and spmv_iterate through runtime.allocs_per_op"},

	// spmv
	{name: "spmv.multiply_ns_per_nnz", unit: "ns", better: "lower", layer: "spmv", moves: "items_per_s on spmv_iterate (nearly all of it), a small share of spmv_build"},
	{name: "spmv.self_ns_per_nnz", unit: "ns", better: "lower", layer: "spmv", moves: "items_per_s on spmv_iterate"},
	{name: "spmv.merge_iterations_max", unit: "count", better: "lower", layer: "spmv", moves: "sim_cycles_per_item on spmv_*"},
	{name: "spmv.sim_cycles_per_nnz.nomerge", unit: "cycles", better: "lower", layer: "spmv", moves: "nothing end to end: every workload matrix is wider than one vector"},
	{name: "spmv.sim_cycles_per_nnz.merge", unit: "cycles", better: "lower", layer: "spmv", moves: "sim_cycles_per_item on spmv_*"},

	// baselines
	{name: "twostep.multiply_ns_per_nnz", unit: "ns", better: "lower", layer: "twostep", moves: "items_per_s on spmv_build only"},
	{name: "twostep.sim_cycles_per_nnz", unit: "cycles", better: "lower", layer: "twostep", moves: "twostep.sim_speedup"},
	{name: "twostep.sim_speedup", unit: "ratio", better: "higher", layer: "twostep", moves: "the paper's Fig. 14 claim (paper: up to 4.6x small, >=1.1x merge-heavy; EXPERIMENTS.md measures 1.15-3.7x); shape-validated only"},
	{name: "recnmp.lookup_us_per_batch", unit: "us", better: "lower", layer: "recnmp", moves: "nothing end to end: the baseline is never on a timed path"},
	{name: "recnmp.sim_cycles_per_query", unit: "cycles", better: "lower", layer: "recnmp", moves: "recnmp.sim_speedup"},
	{name: "recnmp.sim_speedup", unit: "ratio", better: "higher", layer: "recnmp", moves: "the paper's Fig. 13 claim (throughput, paper 21.3x at B=32 with dedup, EXPERIMENTS.md measures 14.1x); here a per-batch latency ratio on this workload's batches, so smaller; shape-validated only"},

	// telemetry
	{name: "telemetry.trace_tax_ratio", unit: "ratio", better: "lower", layer: "telemetry", moves: "none with tracing off; ROADMAP item 5 gates it at 1.15"},
	{name: "telemetry.events_per_hwbatch", unit: "count", better: "lower", layer: "telemetry", moves: "telemetry.trace_tax_ratio"},
	{name: "telemetry.chrome_export_ms", unit: "ms", better: "lower", layer: "telemetry", moves: "none on a timed path"},
	{name: "telemetry.metrics_render_us", unit: "us", better: "lower", layer: "telemetry", moves: "none on a timed path"},

	// the benchmark itself
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "higher", layer: "bench", moves: "the benchmark's own tracing cost: traced over untraced items_per_s"},
	{name: "bench.round_spread", unit: "ratio", better: "lower", layer: "bench", moves: "the benchmark's own noise: interquartile spread of the rounds' items_per_s over their median"},

	// the Go runtime under the workload
	{name: "runtime.allocs_per_op", unit: "count", better: "lower", layer: "runtime", moves: "tail.op_p90_ms on serve_*; items_per_s on spmv_build"},
	{name: "runtime.alloc_kb_per_op", unit: "KB", better: "lower", layer: "runtime", moves: "tail.op_p90_ms on serve_*; items_per_s on spmv_build"},
	{name: "runtime.gc_pause_ms_per_s", unit: "ms", better: "lower", layer: "runtime", moves: "tail.op_p90_ms on serve_*"},
	{name: "runtime.gc_cycles_per_s", unit: "1/s", better: "lower", layer: "runtime", moves: "tail.op_p90_ms on serve_*"},
	{name: "runtime.peak_heap_mb", unit: "MB", better: "lower", layer: "runtime", moves: "nothing end to end; host memory used"},
	{name: "runtime.goroutines_leaked", unit: "count", better: "lower", layer: "runtime", moves: "must be 0 after Drain"},
	{name: "runtime.cpu_s_per_wall_s", unit: "ratio", better: "lower", layer: "runtime", moves: "items_per_s on serve_*: how much of the machine the closed loop keeps busy"},
}

// benchmarkJSON renders the contract in the shape of BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
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
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}
