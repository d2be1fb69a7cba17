package main

import "fmt"

// metricDef is one reported metric: its unit and, for per-layer metrics,
// the end-to-end metric and workload it is expected to move.
type metricDef struct {
	Name  string
	Unit  string
	Moves string
}

// endToEnd are the metrics a user of the library or the service sees.
// Every run with tracing off reports all of them; README.md gives each
// one's definition on each workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "throughput_rps", Unit: "1/s"},
	{Name: "latency_p50_ms", Unit: "ms"},
	{Name: "mflops", Unit: "MFLOP/s"},
	{Name: "mflops_coo", Unit: "MFLOP/s"},
	{Name: "mflops_csr", Unit: "MFLOP/s"},
	{Name: "mflops_ell", Unit: "MFLOP/s"},
	{Name: "mflops_bcsr", Unit: "MFLOP/s"},
	{Name: "rss_peak_mb", Unit: "MiB"},
	{Name: "mutate_p50_ms", Unit: "ms"},
}

// suiteFormats are the paper's four formats, run as "<format>-omp".
var suiteFormats = []string{"coo", "csr", "ell", "bcsr"}

// perLayer are the traced run's metrics, each with the end-to-end metric
// it should move. A metric of a layer a workload does not run reads 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"serve.start_ms", "ms", "setup_s on serve-mutate"},
		{"serve.register_ms", "ms", "setup_s on serve-mutate"},
		{"serve.prepare_cold_ms", "ms", "setup_s on serve-mutate"},
	}
	for _, f := range suiteFormats {
		d = append(d,
			metricDef{"formats." + f + ".prepare_ms", "ms", "setup_s on suite-formats"},
			metricDef{"formats." + f + ".bytes_mb", "MiB", "rss_peak_mb on suite-formats"})
	}
	for _, f := range suiteFormats {
		d = append(d,
			metricDef{"kernels." + f + ".omp_ms", "ms", "mflops_" + f + " on suite-formats"},
			metricDef{"kernels." + f + ".gbps", "GB/s", "mflops_" + f + " on suite-formats"},
			metricDef{"kernels." + f + ".ceiling_pct", "%", "mflops_" + f + " on suite-formats"},
			metricDef{"kernels." + f + ".serial_mflops", "MFLOP/s", "nothing (reference)"})
	}
	d = append(d, metricDef{"kernels.triad_gbps", "GB/s", "nothing (the ceiling)"})
	for _, f := range suiteFormats {
		d = append(d, metricDef{"core." + f + ".overhead_us", "us", "mflops_" + f + " on suite-formats"})
	}
	d = append(d,
		metricDef{"parallel.imbalance", "ratio", "mflops_coo, mflops_csr on suite-formats"},
		metricDef{"serve.queue_ms", "ms", "latency_p50_ms on serve-mutate"},
		metricDef{"serve.load_ms", "ms", "latency_p50_ms, throughput_rps on serve-mutate"},
		metricDef{"serve.respond_ms", "ms", "latency_p50_ms, throughput_rps on serve-mutate"},
		metricDef{"serve.batch_ms", "ms", "latency_p50_ms, throughput_rps on serve-mutate"},
		metricDef{"serve.batch_width", "count", "latency_p50_ms, throughput_rps on serve-mutate"},
		metricDef{"serve.cache_hit_ratio", "ratio", "latency_p50_ms on serve-mutate"},
		metricDef{"serve.handler_self_ms", "ms", "latency_p50_ms on serve-mutate"},
		metricDef{"serve.kernel_ms", "ms", "latency_p50_ms, mflops on serve-mutate"},
		metricDef{"serve.allocs_per_req", "count", "throughput_rps on serve-mutate"},
		metricDef{"serve.alloc_kb_per_req", "KiB", "throughput_rps on serve-mutate"},
		metricDef{"serve.gc_per_1k_req", "count", "throughput_rps on serve-mutate"},
		metricDef{"client.encode_ms", "ms", "latency_p50_ms on serve-mutate"},
		metricDef{"client.decode_ms", "ms", "latency_p50_ms on serve-mutate"},
		metricDef{"http.transport_ms", "ms", "latency_p50_ms on serve-mutate"},
		metricDef{"cluster.hop_ms", "ms", "nothing end to end (serve-mutate's traced run routes one phase)"},
		metricDef{"cluster.attempts_per_req", "ratio", "nothing end to end (serve-mutate's traced run routes one phase)"},
		metricDef{"cluster.holders", "count", "nothing end to end (serve-mutate's traced run routes one phase)"},
		metricDef{"serve.mutate_ms", "ms", "mutate_p50_ms on serve-mutate"},
		metricDef{"delta.extend_us", "us", "mutate_p50_ms on serve-mutate"},
		metricDef{"serve.snapshots", "count", "mutate_p50_ms on serve-mutate"},
		metricDef{"delta.apply_ms", "ms", "latency_p50_ms on serve-mutate"},
		metricDef{"delta.overlay_nnz_mean", "count", "latency_p50_ms on serve-mutate"},
		metricDef{"delta.compactions", "count", "latency_p50_ms, mutate_p50_ms on serve-mutate"},
		metricDef{"delta.compact_ms", "ms", "latency_p50_ms, mutate_p50_ms on serve-mutate"},
	)
	rungMoves := map[string]string{
		"kernel":   "the kernels rows",
		"core":     "the core rows",
		"registry": "serve.cache_hit_ratio, serve.batch_* rows",
		"handler":  "the serve handler rows",
		"loopback": "client.* and http.transport_ms",
		"router":   "cluster.hop_ms",
	}
	for _, size := range []string{"small", "large"} {
		for _, r := range ladderRungs {
			d = append(d, metricDef{"ladder." + size + "." + r + "_us", "us", rungMoves[r]})
		}
	}
	return append(d, metricDef{"trace.overhead_pct", "%", "nothing (prices the instrumentation)"})
}()

// ladderRungs name the layers the ladder adds one at a time.
var ladderRungs = []string{"kernel", "core", "registry", "handler", "loopback", "router"}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect builds the metrics map for defs from values, failing when a
// definition has no value: every run reports every metric of its kind.
func collect(defs []metricDef, values map[string]float64, zeroOK bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			if !zeroOK {
				return nil, fmt.Errorf("metric %s was not measured", d.Name)
			}
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
