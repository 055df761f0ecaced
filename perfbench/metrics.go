package main

import "fmt"

// metricSpec names one reported metric. BENCHMARK.json at the
// repository root lists the same metrics; TestBenchmarkJSON keeps the
// two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a run with --trace 0 reports: what a user of
// the stack sees (virtual time) and what the simulator costs to run
// (host CPU time, in reference seconds).
var endToEnd = []metricSpec{
	{"served_ops_per_vs", "1/s", "higher"},
	{"read_mean_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"served_frac", "frac", "higher"},
	{"error_free_frac", "frac", "higher"},
	{"write_amp", "ratio", "lower"},
	{"host_ops_per_ref_s", "1/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a run with --trace 1 reports. Layers a
// workload does not exercise report zero work.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, kind := range []string{"cpu_frac", "alloc_frac"} {
		for _, m := range modules {
			out = append(out, metricSpec{"host." + kind + "." + m, "frac", "lower"})
		}
	}
	out = append(out,
		metricSpec{"sim.host_ns_per_event", "ns", "lower"},
		metricSpec{"sim.events", "count", "lower"},
		metricSpec{"sim.events_per_op", "ratio", "lower"},
	)
	for _, class := range []string{"latency", "throughput"} {
		for _, stage := range []string{"frontend", "admission", "sched", "device", "serve"} {
			out = append(out, metricSpec{"span." + class + "." + stage + ".mean_us", "us", "lower"})
		}
		out = append(out, metricSpec{"span." + class + ".ios_per_req", "ratio", "lower"})
	}
	out = append(out,
		metricSpec{"sched.wait_us_per_req", "us", "lower"},
		metricSpec{"serve.reject_frac", "frac", "lower"},
		metricSpec{"serve.deadline_miss_frac", "frac", "lower"},
		metricSpec{"serve.max_queue", "count", "lower"},
		metricSpec{"blockdev.cpu_ns_per_op", "ns", "lower"},
		metricSpec{"kvstore.ops_per_commit", "ratio", "higher"},
		metricSpec{"kvstore.checkpoints", "count", "lower"},
		metricSpec{"bufpool.hit_rate", "frac", "higher"},
		metricSpec{"btree.height", "count", "lower"},
		metricSpec{"ssd.reads_per_get", "ratio", "lower"},
		metricSpec{"wal.bytes_per_put", "B", "lower"},
		metricSpec{"pcm.writes_per_put", "ratio", "lower"},
		metricSpec{"pcm.busy_frac", "frac", "lower"},
		metricSpec{"ftl.gc_moves_per_write", "ratio", "lower"},
		metricSpec{"ftl.gc_erases", "count", "lower"},
		metricSpec{"ftl.buffer_hit_frac", "frac", "higher"},
		metricSpec{"ftl.buffer_stalls", "count", "lower"},
		metricSpec{"ssd.read_p99_us", "us", "lower"},
		metricSpec{"ssd.write_p99_us", "us", "lower"},
		metricSpec{"ssd.stale_reads", "count", "lower"},
		metricSpec{"nand.chip_util_max", "frac", "lower"},
		metricSpec{"nand.chip_util_mean", "frac", "lower"},
	)
	for _, cause := range nandCauses {
		out = append(out, metricSpec{"nand.busy_frac." + cause, "frac", "lower"})
	}
	return append(out,
		metricSpec{"bus.channel_util_max", "frac", "lower"},
		metricSpec{"recovery_vms", "ms", "lower"},
		metricSpec{"lost_acked_writes", "count", "lower"},
		metricSpec{"trace.host_overhead_frac", "ratio", "lower"},
	)
}()

// nandCauses are the chip busy causes the per-layer metrics split.
var nandCauses = []string{"read", "program", "erase", "gc-copy"}

// tag attaches units to values and checks that the values are exactly
// the listed metrics.
func tag(values map[string]float64, list []metricSpec) (map[string]metric, error) {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		out[m.name] = metric{v, m.unit}
	}
	if len(values) != len(list) {
		for k := range values {
			if _, ok := out[k]; !ok {
				return nil, fmt.Errorf("metric %s is not listed", k)
			}
		}
	}
	return out, nil
}
