package main

// metricDef names one reported metric and its unit. The tables below are
// the benchmark's contract; BENCHMARK.json lists the same names (a test
// keeps the two in step).
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the system sees, reported by untraced runs.
// Every workload reports every metric; where a metric's own op does not
// exist on a workload, the workload reports the same quantity for its own
// op (see README.md, "Metrics on every workload").
var endToEnd = []metricDef{
	{"speedup", "x"},
	{"spec_ms_p50", "ms"},
	{"spec_ms_p90", "ms"},
	{"seq_ms_p50", "ms"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p99", "ms"},
	{"max_rps_slo", "1/s"},
	{"vet_s_p50", "s"},
	{"ok_rate", "ratio"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
}

// perLayer is reported by traced runs. A layer a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{"mutls.chunk_ms", "ms"},
	{"core.crit.work_ms", "ms"},
	{"core.crit.fork_ms", "ms"},
	{"core.crit.find_cpu_ms", "ms"},
	{"core.crit.join_ms", "ms"},
	{"core.crit.idle_ms", "ms"},
	{"core.spec.work_ms", "ms"},
	{"core.spec.wasted_ms", "ms"},
	{"core.spec.overflow_ms", "ms"},
	{"core.spec.idle_ms", "ms"},
	{"core.spec.validation_ms", "ms"},
	{"core.spec.commit_ms", "ms"},
	{"core.spec.finalize_ms", "ms"},
	{"core.executions", "count"},
	{"core.commits", "count"},
	{"core.rollbacks", "count"},
	{"core.commit_ratio", "ratio"},
	{"core.crit_efficiency", "ratio"},
	{"core.coverage", "ratio"},
	{"core.nospec_overhead_x", "x"},
	{"core.recycle_us", "us"},
	{"gbuf.loads", "count"},
	{"gbuf.stores", "count"},
	{"gbuf.read_set_hits", "count"},
	{"gbuf.conflicts", "count"},
	{"gbuf.validation_fail", "count"},
	{"gbuf.words_committed", "count"},
	{"gbuf.read_set_peak", "words"},
	{"gbuf.write_set_peak", "words"},
	{"vclock.predicted_speedup", "x"},
	{"vclock.model_error", "ratio"},
	{"pool.acquired", "count"},
	{"pool.rejected", "count"},
	{"pool.degraded_share", "ratio"},
	{"pool.max_claimed_cpus", "count"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p99", "ms"},
	{"serve.kernel_ms_p50", "ms"},
	{"serve.self_ms_p50", "ms"},
	{"serve.transport_ms_p50", "ms"},
	{"serve.seq_misses", "count"},
	{"gen.late_ms_p99", "ms"},
	{"gen.late_ms_max", "ms"},
	{"analysis.load_ms", "ms"},
	{"analysis.effects_index_ms", "ms"},
	{"analysis.specaccess_ms", "ms"},
	{"analysis.specpure_ms", "ms"},
	{"analysis.pollcheck_ms", "ms"},
	{"analysis.pointleak_ms", "ms"},
	{"analysis.leaseleak_ms", "ms"},
	{"analysis.atomicmix_ms", "ms"},
	{"analysis.packages", "count"},
	{"analysis.findings", "count"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_per_op", "count"},
	{"trace.overhead_pct", "%"},
}
