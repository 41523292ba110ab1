package main

// The metric tables (one source for BENCHMARK.json, the README and the
// -agree check) and the arithmetic from a run's raw counts to each value.

import (
	"math"
	"slices"
)

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// boundedDef is an end-to-end metric: Bound is the share of the parent's
// median by which it may worsen before a change is a regression.
type boundedDef struct {
	metricDef
	Bound float64 `json:"bound"`
}

// endToEnd is what a user of the system sees, on every workload. One bound
// serves all four workloads, so the noisiest sets it: over ten seeds on
// the 2-core runner this was written on the quartile spread of the timed
// metrics reached 11–14% on planar_direct (the machine drifts between
// runs, not inside one) and 24% on set-up, against 0.03–2.5% for the two
// counts. The contract caps a bound at 25%. bench/README.md has the table.
var endToEnd = []boundedDef{
	{metricDef{"setup_s", "s", "lower"}, 0.25},
	{metricDef{"latency_p50_us", "us", "lower"}, 0.25},
	{metricDef{"latency_p95_us", "us", "lower"}, 0.25},
	{metricDef{"throughput_ops_s", "1/s", "higher"}, 0.25},
	{metricDef{"ios_per_op", "count", "lower"}, 0.10},
	{metricDef{"cpu_us_per_op", "us", "lower"}, 0.25},
	{metricDef{"heap_live_mb", "MB", "lower"}, 0.10},
}

// perLayer is one traced run's waterfall, layers named after the repo's
// packages. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "server.batch_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "server.run_us_mean", Unit: "us", Better: "lower"},
	{Name: "server.wire_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.resp_bytes_mean", Unit: "count", Better: "lower"},
	{Name: "server.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "server.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "server.handler_cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "server.handler_allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "server.handler_bytes_per_req", Unit: "count", Better: "lower"},
	{Name: "engine.batchinto_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.batchinto_us_mean", Unit: "us", Better: "lower"},
	{Name: "engine.plan_us_mean", Unit: "us", Better: "lower"},
	{Name: "engine.exec_us_mean", Unit: "us", Better: "lower"},
	{Name: "engine.wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "engine.merge_us_mean", Unit: "us", Better: "lower"},
	{Name: "engine.shards_visited_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.shards_pruned_per_query", Unit: "count", Better: "higher"},
	{Name: "engine.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.bytes_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.insert_us_mean", Unit: "us", Better: "lower"},
	{Name: "engine.insert_us_p99", Unit: "us", Better: "lower"},
	{Name: "engine.delete_us_mean", Unit: "us", Better: "lower"},
	{Name: "engine.write_us_mean", Unit: "us", Better: "lower"},
	{Name: "engine.vs_index_ratio", Unit: "ratio", Better: "lower"},
	{Name: "planner.explain_us_mean", Unit: "us", Better: "lower"},
	{Name: "planner.pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "index.planar.query_us_p50", Unit: "us", Better: "lower"},
	{Name: "index.planar.ios_per_query", Unit: "count", Better: "lower"},
	{Name: "index.planar.build_s", Unit: "s", Better: "lower"},
	{Name: "index.spatial3.query_us_p50", Unit: "us", Better: "lower"},
	{Name: "index.spatial3.ios_per_query", Unit: "count", Better: "lower"},
	{Name: "index.spatial3.build_s", Unit: "s", Better: "lower"},
	{Name: "index.knn.query_us_p50", Unit: "us", Better: "lower"},
	{Name: "index.knn.ios_per_query", Unit: "count", Better: "lower"},
	{Name: "index.knn.build_s", Unit: "s", Better: "lower"},
	{Name: "index.partition.query_us_p50", Unit: "us", Better: "lower"},
	{Name: "index.partition.ios_per_query", Unit: "count", Better: "lower"},
	{Name: "index.partition.build_s", Unit: "s", Better: "lower"},
	{Name: "index.dynplanar.query_us_p50", Unit: "us", Better: "lower"},
	{Name: "index.dynplanar.ios_per_query", Unit: "count", Better: "lower"},
	{Name: "index.dynplanar.build_s", Unit: "s", Better: "lower"},
	{Name: "index.dynpartition.query_us_p50", Unit: "us", Better: "lower"},
	{Name: "index.dynpartition.ios_per_query", Unit: "count", Better: "lower"},
	{Name: "index.dynpartition.build_s", Unit: "s", Better: "lower"},
	{Name: "index.planar.ios_over_bound", Unit: "ratio", Better: "lower"},
	{Name: "index.space_blocks_per_nb", Unit: "ratio", Better: "lower"},
	{Name: "index.dynpartition.insert_us_mean", Unit: "us", Better: "lower"},
	{Name: "index.dynpartition.delete_us_mean", Unit: "us", Better: "lower"},
	{Name: "eio.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "eio.stall_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "eio.max_shard_ios_per_op", Unit: "count", Better: "lower"},
	{Name: "eio.sleep_actual_us", Unit: "us", Better: "lower"},
	{Name: "eio.read_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "eio.read_uncached_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "metrics.scrape_us", Unit: "us", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_alloc_mb_peak", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines", Unit: "count", Better: "lower"},
	{Name: "client.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.latency_max_us", Unit: "us", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.failed_share", Unit: "ratio", Better: "lower"},
}

func endToEndDefs() []metricDef {
	defs := make([]metricDef, len(endToEnd))
	for i, d := range endToEnd {
		defs[i] = d.metricDef
	}
	return defs
}

// quantile is the q-quantile of ns, by nearest rank; it sorts ns.
func quantile(ns []int32, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	return float64(ns[min(len(ns)-1, int(q*float64(len(ns))))])
}

func mean(ns []int32) float64 {
	if len(ns) == 0 {
		return 0
	}
	var sum int64
	for _, v := range ns {
		sum += int64(v)
	}
	return float64(sum) / float64(len(ns))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

// endToEndValues turns an untraced run into the end-to-end metrics, each
// over the whole timed phase, stalls and all.
func endToEndValues(o *runOut) map[string]float64 {
	ops := float64(o.rec.ops)
	wall := o.end.t.Sub(o.begin.t).Seconds()
	io := o.end.st.Total.Sub(o.begin.st.Total)
	lat := o.rec.all()
	return map[string]float64{
		"setup_s":          median(o.setupS),
		"latency_p50_us":   quantile(lat, 0.50) / 1e3,
		"latency_p95_us":   quantile(lat, 0.95) / 1e3,
		"throughput_ops_s": ops / wall,
		"ios_per_op":       float64(io.IOs()) / ops,
		"cpu_us_per_op":    us(o.end.cpu-o.begin.cpu) / ops,
		"heap_live_mb":     float64(o.heapLive) / mib,
	}
}

// perLayerValues turns a traced run, the untraced run before it and the
// probes into the per-layer metrics. m arrives holding the probe values.
func perLayerValues(m map[string]float64, plain, o *runOut) {
	lat := o.rec.all()
	ops := float64(o.rec.ops)
	reads := float64(len(o.rec.lat[opRead]) * o.sp.batch)
	wall := func(r *runOut) float64 { return r.end.t.Sub(r.begin.t).Seconds() }

	if sv := o.sv; sv != nil {
		seen := float64(sv.latSeen)
		m["server.batch_wait_us_mean"] = ratio(float64(sv.batchNs), seen) / 1e3
		m["server.queue_wait_us_mean"] = ratio(float64(sv.queueNs), seen) / 1e3
		m["server.run_us_mean"] = ratio(float64(sv.runNs), seen) / 1e3
		m["server.wire_us_p50"] = quantile(sv.wireNs, 0.5) / 1e3
		m["server.resp_bytes_mean"] = ratio(float64(sv.respBytes), ops)
		m["server.batch_size_mean"] = ratio(float64(o.be.queries), float64(len(o.be.callNs)))
		m["server.shed_share"] = ratio(float64(sv.shed), float64(sv.sent))
	}

	m["engine.batchinto_us_p50"] = quantile(o.be.callNs, 0.5) / 1e3
	m["engine.batchinto_us_mean"] = mean(o.be.callNs) / 1e3
	hist := o.end.snap.Sub(o.begin.snap)
	for _, stage := range []string{"plan", "exec", "wait", "merge"} {
		if h := hist.Histogram("engine_run_" + stage + "_ns"); h != nil {
			m["engine."+stage+"_us_mean"] = ratio(h.Sum, float64(h.Count)) / 1e3
		}
	}
	st0, st1 := o.begin.st, o.end.st
	visited, pruned := float64(st1.ShardsVisited-st0.ShardsVisited), float64(st1.ShardsPruned-st0.ShardsPruned)
	m["engine.shards_visited_per_query"] = ratio(visited, reads)
	m["engine.shards_pruned_per_query"] = ratio(pruned, reads)
	// Allocation is the system's, so it is read off the untraced half.
	m["engine.allocs_per_op"] = float64(plain.end.mem.Mallocs-plain.begin.mem.Mallocs) / float64(plain.rec.ops)
	m["engine.bytes_per_op"] = float64(plain.end.mem.TotalAlloc-plain.begin.mem.TotalAlloc) / float64(plain.rec.ops)
	ins, del := o.rec.lat[opInsert], o.rec.lat[opDelete]
	m["engine.insert_us_mean"] = mean(ins) / 1e3
	m["engine.insert_us_p99"] = quantile(ins, 0.99) / 1e3
	m["engine.delete_us_mean"] = mean(del) / 1e3
	m["engine.write_us_mean"] = mean(slices.Concat(ins, del)) / 1e3

	m["planner.explain_us_mean"] = mean(o.explain) / 1e3
	m["planner.pruned_share"] = ratio(pruned, visited+pruned)

	io := st1.Total.Sub(st0.Total)
	m["eio.hit_rate"] = io.HitRate()
	m["eio.stall_ms_per_op"] = float64(io.StallNs) / 1e6 / ops
	var worst int64
	for i := range st1.PerShard {
		worst = max(worst, st1.PerShard[i].IO.IOs()-st0.PerShard[i].IO.IOs())
	}
	m["eio.max_shard_ios_per_op"] = float64(worst) / ops

	m["trace.overhead_share"] = 1 - ratio(ops/wall(o), float64(plain.rec.ops)/wall(plain))
	m["metrics.scrape_us"] = o.scrapeUs

	m["runtime.gc_cycles"] = float64(o.end.mem.NumGC - o.begin.mem.NumGC)
	m["runtime.gc_pause_ms_total"] = float64(o.end.mem.PauseTotalNs-o.begin.mem.PauseTotalNs) / 1e6
	m["runtime.heap_alloc_mb_peak"] = float64(o.heapPeak) / mib
	m["runtime.goroutines"] = float64(o.goroutines)

	m["client.latency_p99_us"] = quantile(lat, 0.99) / 1e3
	m["client.latency_max_us"] = quantile(lat, 1) / 1e3
	m["client.samples"] = float64(len(lat))
	m["client.failed_share"] = ratio(float64(o.rec.failed), float64(o.rec.attempted))
}

// closure compares the shim's outside timing of the engine with the
// engine's own engine_run_total_ns histogram over the same runs: the
// ratio of the two means, 1 when the waterfall closes. Update ops are not
// engine runs, so a mixed workload compares on its reads only.
func closure(o *runOut) float64 {
	h := o.end.snap.Sub(o.begin.snap).Histogram("engine_run_total_ns")
	if h == nil || h.Count == 0 {
		return math.NaN()
	}
	outside := mean(o.be.callNs)
	if o.sv == nil {
		outside = mean(o.rec.lat[opRead])
	}
	return outside / (h.Sum / float64(h.Count))
}
