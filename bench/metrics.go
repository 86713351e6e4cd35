package main

// metricDef names one reported metric. The end-to-end and per-layer
// tables are the benchmark's contract: BENCHMARK.json lists exactly these
// with their regression bounds (TestBenchmarkJSONMatchesTables pins it),
// and the final JSON line of a run carries every metric of one table.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a fleet operator sees, measured on the untraced
// window; every workload reports every one, and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sessions_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_slice_ms", "ms"},
	{"gateway_cpu_us_per_session", "us"},
	{"gateway_rss_mb", "MB"},
}

// workloadOnly are end-to-end outcomes that exist on some workloads only,
// are correctness gates that must read 0, or (the whole-window p99) vary
// too much from run to run to take a regression bound; they are printed
// and written to -out but are not part of the per-run JSON contract.
var workloadOnly = []metricDef{
	{"latency_p99_ms", "ms"},
	{"reject_p50_ms", "ms"},
	{"reject_p90_ms", "ms"},
	{"detect_p50_ms", "ms"},
	{"detect_p90_ms", "ms"},
	{"fail_ratio", "ratio"},
	{"false_accepts", "count"},
}

// perLayer attributes the end-to-end cost to the gateway's layers: the
// traced run's self times, /metrics deltas over the window, and the
// generator's own checks. Layers a workload's sessions do not run read 0.
var perLayer = []metricDef{
	// Traced run: self time per call, single-threaded, in process.
	{"remote.frame_decode_us", "us"},
	{"remote.frame_encode_us", "us"},
	{"attest.decode_report_us", "us"},
	{"attest.chain_auth_us", "us"},
	{"pipeline.mtb_decode_us", "us"},
	{"pipeline.expand_us", "us"},
	{"verify.cached_verify_us", "us"},
	{"verify.cache_lookup_us", "us"},
	{"speccfa.mine_us", "us"},
	{"journal.append_us", "us"},
	{"automaton.decode_us", "us"},
	{"verify.interp_us", "us"},
	{"verify.interp_alloc_mb", "MB"},
	{"verify.session_feed_us_per_slice", "us"},
	{"verify.session_seal_us", "us"},
	{"ledger.layer_sum_us", "us"},
	{"ledger.unattributed_pct", "%"},
	// Gateway /metrics deltas over the measured window.
	{"server.verify_worker_us", "us"},
	{"server.verify_queue_us", "us"},
	{"server.stage_helo_us", "us"},
	{"server.stage_dict_push_us", "us"},
	{"server.stage_collect_us", "us"},
	{"server.stage_verdict_write_us", "us"},
	{"server.phase_auth_us", "us"},
	{"server.phase_expand_us", "us"},
	{"server.phase_search_us", "us"},
	{"server.sheds", "count"},
	{"server.bytes_in_per_session", "B"},
	{"server.frames_in_per_session", "count"},
	{"verify.cache_hit_ratio", "ratio"},
	{"verify.cache_evictions_per_session", "count"},
	{"automaton.decodes_per_session", "count"},
	{"automaton.accept_ratio", "ratio"},
	{"automaton.fallbacks_per_session", "count"},
	{"automaton.steps_per_decode", "count"},
	{"automaton.backtracks_per_decode", "count"},
	{"speccfa.mined_per_session", "count"},
	{"speccfa.promotions", "count"},
	{"journal.fsync_us", "us"},
	{"journal.records_per_fsync", "count"},
	{"stream.slice_verify_us", "us"},
	{"stream.alarms_per_hijack", "count"},
	{"stream.heal_acks", "count"},
	{"gateway.peak_rss_mb", "MB"},
	// Generator-side checks: these confirm the generator is not the
	// bottleneck and should move nothing.
	{"loadgen.cpu_us_per_session", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"prover.record_ms", "ms"},
	{"prover.records_in_window", "count"},
}

// unitOf returns a metric's unit from whichever table defines it.
func unitOf(name string) string {
	for _, t := range [][]metricDef{endToEnd, workloadOnly, perLayer} {
		for _, d := range t {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
