package main

// metric is one named, unit-carrying figure of a run.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric: BENCHMARK.json lists the same names, units
// and directions (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the program sees, printed by every
// untraced run of every workload. latency_p90_ms, latency_p99_ms and
// failed_frac are printed too but are not in this set. A tail percentile
// exists only where ten samples lie beyond it, and on serve-batch p90
// follows the host: it sits where requests that a busy vCPU stalled
// begin, so it moved by a third of its median between runs of the same
// code. failed_frac is 0 on a healthy run (it is the failed/attempted
// pair of the result line).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"solves_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"solve_s", "s", "lower"},
	{"clean_solve_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. Every traced run prints all of
// them; a layer a workload does not run reads 0.
var perLayer = []metricDef{
	{"serve.ingress_ms_p50", "ms", "lower"},
	{"serve.queue_ms_p50", "ms", "lower"},
	{"serve.queue_ms_p90", "ms", "lower"},
	{"serve.solve_ms_p50", "ms", "lower"},
	{"serve.batch_width_mean", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.failed", "count", "lower"},
	{"serve.cache_bytes", "bytes", "lower"},
	{"registry.factor_s", "s", "lower"},
	{"registry.checkout_ms_p50", "ms", "lower"},
	{"core.iterations", "count", "lower"},
	{"core.iter_ms_p50", "ms", "lower"},
	{"core.faults_seen", "count", "lower"},
	{"core.recovered_forward", "count", "higher"},
	{"core.recovered_inverse", "count", "higher"},
	{"core.contributions_lost", "count", "lower"},
	{"core.unrecovered", "count", "lower"},
	{"core.recovery_ms_per_due", "ms", "lower"},
	{"dist.rank_faults_max", "count", "lower"},
	{"taskrt.useful_frac", "ratio", "higher"},
	{"taskrt.idle_frac", "ratio", "lower"},
	{"sparse.spmv_ms", "ms", "lower"},
	{"sparse.spmv_gbs", "GB/s", "higher"},
	{"sparse.spmv_frac_of_stream", "ratio", "higher"},
	{"sparse.spmm4_gbs", "GB/s", "higher"},
	{"precond.apply_ms", "ms", "lower"},
	{"precond.apply_over_spmv", "ratio", "lower"},
	{"sparse.factor_block_ms", "ms", "lower"},
	{"sparse.factorizations_after_warmup", "count", "lower"},
	{"engine.graph_preps_after_warmup", "count", "lower"},
	{"inject.fired", "count", "higher"},
	{"stream.triad_gbs", "GB/s", "higher"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// figures collects a run's metrics by name; select orders them by a
// definition list and reports any the run did not produce.
type figures map[string]float64

func (f figures) selectDefs(defs []metricDef) (out []metric, missing []string) {
	for _, d := range defs {
		v, ok := f[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out = append(out, metric{Name: d.name, Value: v, Unit: d.unit})
	}
	return out, missing
}
