package main

// layerMetric is one entry of BENCHMARK.json's per_layer list.
type layerMetric struct {
	name, unit, better string
}

// perLayerMetrics are the metrics a traced run prints (BENCHMARK.json
// per_layer, checked by TestBenchmarkJSONMatches). The first block holds
// the workload-specific end-to-end metrics: they exist on some workloads
// only, so they cannot be contract end-to-end metrics, which every run must
// report; a workload that does not produce one prints 0.
var perLayerMetrics = []layerMetric{
	{"emu_kops_per_s", "kcmd/s", "higher"},
	{"fleet_devices_per_s", "dev/s", "higher"},
	{"paper_regen_s", "s", "lower"},
	{"paper_err", "1", "lower"},
	{"virt_read_p50_us", "us", "lower"},
	{"virt_read_p999_us", "us", "lower"},
	{"virt_write_p999_us", "us", "lower"},
	{"virt_fsync_p999_us", "us", "lower"},
	{"virt_mib_per_s", "MiB/s", "higher"},
	{"waf", "1", "lower"},
	{"failed_frac", "1", "lower"},

	{"host.self_pct", "%", "lower"},
	{"host.submit_ns", "ns", "lower"},
	{"host.poll_ns", "ns", "lower"},
	{"host.queue_delay_us_p99", "us", "lower"},
	{"host.refused", "count", "lower"},

	{"ftl.self_pct", "%", "lower"},
	{"ftl.backend_ns", "ns", "lower"},
	{"ftl.map_fetch_reads_per_kread", "count", "lower"},
	{"ftl.buffer_read_frac", "1", "higher"},
	{"ftl.premature_flushes_per_kwrite", "count", "lower"},
	{"ftl.staged_frac", "1", "lower"},
	{"ftl.combines", "count", "lower"},
	{"ftl.pad_sectors", "count", "lower"},

	{"wbuf.self_pct", "%", "lower"},
	{"wbuf.evictions", "count", "lower"},
	{"wbuf.full_drains", "count", "lower"},

	{"slc.self_pct", "%", "lower"},
	{"slc.gc_collections", "count", "lower"},
	{"slc.gc_migrated", "count", "lower"},
	{"slc.gc_migrated_per_staged", "1", "lower"},
	{"slc.stage_us_p99", "us", "lower"},
	{"slc.gc_migrate_us_p99", "us", "lower"},

	{"l2pcache.self_pct", "%", "lower"},
	{"l2pcache.hit_ratio", "1", "higher"},
	{"l2pcache.probes_per_lookup", "count", "lower"},
	{"l2pcache.evictions", "count", "lower"},

	{"mapping.self_pct", "%", "lower"},
	{"mapping.fetch_us_p99", "us", "lower"},

	{"nand.self_pct", "%", "lower"},
	{"nand.page_reads_per_op", "count", "lower"},
	{"nand.programs_per_op", "count", "lower"},
	{"nand.erases", "count", "lower"},
	{"nand.chip_util_max", "1", "higher"},
	{"nand.channel_util_max", "1", "higher"},
	{"nand.program_us_p99", "us", "lower"},

	{"sim.self_pct", "%", "lower"},
	{"sim.reserves_per_op", "count", "lower"},

	{"zns.self_pct", "%", "lower"},
	{"zns.resets", "count", "lower"},
	{"zns.finishes", "count", "lower"},
	{"zns.reset_us_p99", "us", "lower"},
	{"zns.finish_us_p99", "us", "lower"},

	{"telemetry.self_pct", "%", "lower"},
	{"telemetry.samples", "count", "lower"},
	{"telemetry.collect_ns", "ns", "lower"},

	{"fleet.self_pct", "%", "lower"},
	{"fleet.alloc_kib_per_device", "KiB", "lower"},
	{"fleet.worker_speedup", "x", "higher"},
	{"workload.self_pct", "%", "lower"},
	{"stats.self_pct", "%", "lower"},
	{"fault.media_errors", "count", "lower"},

	{"experiments.self_pct", "%", "lower"},
	{"experiments.unstable_regens", "count", "lower"},
	{"legacy.self_pct", "%", "lower"},
	{"femu.self_pct", "%", "lower"},
	{"confzns.self_pct", "%", "lower"},

	{"obs.self_pct", "%", "lower"},
	{"obs.tracing_overhead_pct", "%", "lower"},

	{"fault.self_pct", "%", "lower"},
	{"power.self_pct", "%", "lower"},
	{"config.self_pct", "%", "lower"},
	{"units.self_pct", "%", "lower"},
	{"refdata.self_pct", "%", "lower"},

	{"runtime.self_pct", "%", "lower"},
	{"runtime.gc_cpu_pct", "%", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B/op", "lower"},

	{"bench.self_pct", "%", "lower"},
	{"other.self_pct", "%", "lower"},
}

// perLayer and perLayerUnit index perLayerMetrics for the report.
var (
	perLayer     []string
	perLayerUnit = map[string]string{}
)

func init() {
	for _, m := range perLayerMetrics {
		perLayer = append(perLayer, m.name)
		perLayerUnit[m.name] = m.unit
	}
}
