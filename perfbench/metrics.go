package main

import (
	"fmt"

	"repro/internal/steady"
)

// endToEnd lists the metrics of an untraced run, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"alloc_kb_per_op", "KB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run. Every workload reports
// all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"tiers.generate_ms", "ms"},
	{"exp.parallel_eff", "ratio"},
	{"exp.task_ms_max", "ms"},
	{"steady.scatter_ms", "ms"},
	{"steady.scatter_share", "ratio"},
	{"steady.lb_ms", "ms"},
	{"steady.lb_share", "ratio"},
	{"steady.broadcast_ms", "ms"},
	{"steady.broadcast_share", "ratio"},
	{"steady.cache_hit_ratio", "ratio"},
	{"steady.cut_rounds", "count"},
	{"steady.cuts", "count"},
	{"steady.fast_path_hits", "count"},
	{"heur.mcph_ms", "ms"},
	{"heur.mcph.simplex_iters", "count"},
	{"heur.augm_mc_ms", "ms"},
	{"heur.augm_mc.simplex_iters", "count"},
	{"heur.red_bc_ms", "ms"},
	{"heur.red_bc.simplex_iters", "count"},
	{"heur.multisource_ms", "ms"},
	{"heur.multisource.simplex_iters", "count"},
	{"lp.solves", "count"},
	{"lp.simplex_iters", "count"},
	{"lp.dual_iters", "count"},
	{"lp.iters_per_solve", "count"},
	{"lp.warm_hold_ratio", "ratio"},
	{"lp.factorizations", "count"},
	{"lp.refactors", "count"},
	{"lp.us_per_iter", "us"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p99", "ms"},
	{"serve.wait_ms_p99", "ms"},
	{"serve.shard_imbalance", "ratio"},
	{"serve.limiter_queued", "count"},
	{"serve.shed", "count"},
	{"serve.coalesced", "count"},
	{"serve.simplex_iters_per_req", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.invalidated_per_patch", "count"},
	{"serve.patch_handler_ms_p50", "ms"},
	{"live.patch_ack_ms_p50", "ms"},
	{"live.update_lag_ms_p50", "ms"},
	{"live.update_lag_ms_p90", "ms"},
	{"live.updates_per_version", "ratio"},
	{"live.simplex_iters_per_version", "count"},
	{"live.warm_ratio", "ratio"},
	{"client.overhead_ms_p50", "ms"},
	{"client.latency_ms_p90", "ms"},
	{"client.latency_ms_p99", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"gen.conn_wait_ms_p99", "ms"},
	{"tiers.self_ms", "ms"},
	{"exp.self_ms", "ms"},
	{"steady.self_ms", "ms"},
	{"heur.self_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"client.self_ms", "ms"},
	{"trace_overhead_frac", "ratio"},
	{"fail_frac", "ratio"},
}

// addSolverMetrics reports the steady and lp counters of a SolveStats
// total. The lp layer is not called directly by any workload; it is
// counted through the evaluator's statistics.
func addSolverMetrics(res *result, st steady.SolveStats, from string) {
	iters := st.Iterations + st.DualIters
	res.add("steady.cache_hit_ratio", "ratio", ratio(float64(st.CacheHits), float64(st.Evaluations)),
		fmt.Sprintf("%d hits / %d evaluations (%s)", st.CacheHits, st.Evaluations, from))
	res.add("steady.cut_rounds", "count", float64(st.Rounds), "")
	res.add("steady.cuts", "count", float64(st.Cuts), "")
	res.add("steady.fast_path_hits", "count", float64(st.FastPathHits), "")
	res.add("lp.solves", "count", float64(st.Solves), "")
	res.add("lp.simplex_iters", "count", float64(iters), "primal + dual")
	res.add("lp.dual_iters", "count", float64(st.DualIters), "")
	res.add("lp.iters_per_solve", "count", ratio(float64(iters), float64(st.Solves)), "")
	res.add("lp.warm_hold_ratio", "ratio", ratio(float64(st.WarmSolves), float64(st.WarmAttempts)),
		fmt.Sprintf("%d of %d warm starts held", st.WarmSolves, st.WarmAttempts))
	res.add("lp.factorizations", "count", float64(st.Factorized), "")
	res.add("lp.refactors", "count", float64(st.Refactors), "")
}

// addLayerSelf reports each layer's total self time in the trace.
func addLayerSelf(res *result, st spanStats) {
	for _, l := range []string{"tiers", "exp", "steady", "heur", "serve", "client"} {
		res.add(l+".self_ms", "ms", st.byLayer[l], "total self time")
	}
}

// completePerLayer puts a traced run's metrics in perLayer order and
// adds 0 for every layer metric the workload does not exercise. A
// metric outside the list is a bug in the benchmark.
func completePerLayer(res *result) error {
	have := map[string]metric{}
	for _, m := range res.metrics {
		have[m.name] = m
	}
	out := make([]metric, 0, len(perLayer))
	for _, pl := range perLayer {
		m, ok := have[pl.name]
		if !ok {
			m = metric{name: pl.name, unit: pl.unit, note: "not exercised by this workload"}
		}
		if m.unit != pl.unit {
			return fmt.Errorf("metric %s has unit %s, want %s", m.name, m.unit, pl.unit)
		}
		delete(have, pl.name)
		out = append(out, m)
	}
	for name := range have {
		return fmt.Errorf("metric %s is not a per-layer metric", name)
	}
	res.metrics = out
	return nil
}

// completeEndToEnd checks an untraced run reports exactly the
// end-to-end metrics, in order.
func completeEndToEnd(res *result) error {
	if len(res.metrics) != len(endToEnd) {
		return fmt.Errorf("%d end-to-end metrics, want %d", len(res.metrics), len(endToEnd))
	}
	for i, e := range endToEnd {
		if m := res.metrics[i]; m.name != e.name || m.unit != e.unit {
			return fmt.Errorf("end-to-end metric %d is %s [%s], want %s [%s]", i, m.name, m.unit, e.name, e.unit)
		}
	}
	return nil
}
