package main

import "kloc/internal/trace"

type metricName struct{ name, unit string }

// perLayerNames lists every metric a traced run reports, in
// BENCHMARK.json order. A metric a workload does not reach reads 0.
func perLayerNames() []metricName {
	var out []metricName
	for _, b := range []string{"inode_open", "inode_other", "object", "page", "place", "tick"} {
		out = append(out, metricName{"policy." + b + "_s", "s"}, metricName{"policy." + b + "_calls", "count"})
	}
	out = append(out,
		metricName{"policy.share", "ratio"},
		metricName{"harness.run_self_s", "s"},
		metricName{"kernel.new_s", "s"},
		metricName{"workload.setup_s", "s"},
		metricName{"cluster.new_s", "s"},
		metricName{"cluster.calibrate_s", "s"},
		metricName{"cluster.run_s", "s"},
		metricName{"cluster.machine_step_us", "us"},
		metricName{"cluster.lb_overhead_us", "us"},
		metricName{"sim.lanes.epochs", "count"},
		metricName{"sim.lanes.fired", "count"},
		metricName{"sim.lanes.fired_imbalance", "ratio"},
		metricName{"sim.lanes.span_s", "s"},
		metricName{"sim.lanes.efficiency", "ratio"},
		metricName{"host.cores_busy", "ratio"},
		metricName{"go.gc_cpu_frac", "ratio"},
		metricName{"go.alloc_mb_per_job", "MB"},
		metricName{"trace.overhead_s", "s"},
		metricName{"kloc_speedup", "ratio"},
		metricName{"sim_p99_us", "us"},
		metricName{"memsim.migrated_pages", "count"},
		metricName{"memsim.kernel_refs", "count"},
		metricName{"memsim.app_refs", "count"},
		metricName{"memsim.frame_reuse_ratio", "ratio"},
		metricName{"alloc.slow_alloc_frac", "ratio"},
		metricName{"kloc.fastpath_hit_rate", "ratio"},
		metricName{"kloc.metadata_bytes", "bytes"},
		metricName{"fs.opens", "count"},
		metricName{"fs.reads", "count"},
		metricName{"fs.writes", "count"},
		metricName{"fs.syncs", "count"},
		metricName{"fs.journal_commits", "count"},
		metricName{"fs.cache_hit_rate", "ratio"},
		metricName{"fs.readahead_hit_rate", "ratio"},
		metricName{"blockdev.busy_ms", "ms"},
		metricName{"percpu.commit_ratio", "ratio"},
		metricName{"cluster.retries", "count"},
		metricName{"cluster.hedge_win_frac", "ratio"},
		metricName{"cluster.wasted_frac", "ratio"},
		metricName{"cluster.hot_frac", "ratio"},
		metricName{"cluster.shed", "count"},
		metricName{"cluster.breaker_opens", "count"},
	)
	for _, n := range trace.Names() {
		out = append(out, metricName{"trace." + string(n), "count"})
	}
	return out
}
