package main

import "runtime"

// metricSpec names one reported metric, its unit, and which way is
// better ("lower" or "higher").
type metricSpec struct {
	Name, Unit, Better string
}

const (
	lo = "lower"
	hi = "higher"
)

// endToEndMetrics are measured with tracing off, on every workload.
var endToEndMetrics = []metricSpec{
	{"wall_s", "s", lo},
	{"cpu_s", "s", lo},
	{"sim_ops_per_s", "1/s", hi},
	{"setup_s", "s", lo},
	{"rss_p50_mb", "MiB", lo},
}

// perLayerMetrics are printed by the traced run. A metric whose layer
// or code path the workload does not run reports 0 (coherence outside
// multicore, kernels and OTP prefetch under crash sinks and
// Engine.StepBatch, Engine.Step), and so does a self time when the
// profile caught no sample of its layer. Self times (*.self_s) are CPU
// seconds per pass folded from the profile of the measured phase; *_s
// span figures are wall seconds per pass; counts are per pass. The
// engine, mem, pb, nvm and bmt figures come from re-simulating the
// pass's op streams after the measured phase (see replay.go).
var perLayerMetrics = []metricSpec{
	{"workload.self_s", "s", lo}, {"workload.next_batch_s", "s", lo},
	{"engine.self_s", "s", lo}, {"engine.step_s", "s", lo}, {"engine.ns_per_op", "ns", lo}, {"engine.new_s", "s", lo},
	{"engine.kernelized_cells", "count", hi}, {"engine.otp_prefetch_hit_frac", "ratio", hi},
	{"mem.self_s", "s", lo}, {"mem.l1_hit", "ratio", hi}, {"mem.llc_hit", "ratio", hi},
	{"pb.self_s", "s", lo}, {"pb.entries_allocated", "count", hi}, {"pb.nwpe", "ratio", hi},
	{"pb.peak_occupancy", "count", hi}, {"pb.backpressure_cycles", "cycles", lo},
	{"crypto.self_s", "s", lo},
	{"bmt.self_s", "s", lo}, {"bmt.logical_updates", "count", hi}, {"bmt.physical_hashes", "count", hi}, {"bmt.hashes_per_update", "ratio", lo},
	{"nvm.self_s", "s", lo}, {"nvm.pm_reads", "count", lo}, {"nvm.pm_writes", "count", lo},
	{"nvm.wpq_full_hits", "count", lo}, {"nvm.reencryptions", "count", lo},
	{"coherence.self_s", "s", lo}, {"coherence.migrations", "count", hi}, {"coherence.read_flushes", "count", hi},
	{"runner.self_s", "s", lo}, {"host.cpu_util", "ratio", hi}, {"host.rss_p95_mb", "MiB", lo},
	{"harness.self_s", "s", lo}, {"harness.memo_hits", "count", hi}, {"harness.memo_misses", "count", lo},
	{"harness.disk_saves", "count", hi}, {"harness.warm_replay_s", "s", lo},
	{"crashsim.self_s", "s", lo}, {"crashsim.points_injected", "count", hi}, {"crashsim.cell_p50_s", "s", lo},
	{"recovery.self_s", "s", lo}, {"recovery.entries_drained", "count", hi}, {"recovery.blocks_checked", "count", hi},
	{"service.self_s", "s", lo}, {"service.upload_s", "s", lo}, {"service.finalize_s", "s", lo},
	{"service.checkpoints", "count", hi}, {"service.checkpoint_bytes", "bytes", hi},
	{"service.queue_full", "count", lo}, {"service.ops_streamed", "count", hi},
	{"trace.self_s", "s", lo}, {"trace.encode_mb_per_s", "MB/s", hi}, {"trace.decode_mb_per_s", "MB/s", hi}, {"trace.bytes_per_op", "bytes", lo},
	{"runtime.self_s", "s", lo}, {"runtime.gc_cycles", "count", lo}, {"runtime.gc_cpu_s", "s", lo},
	{"runtime.alloc_mb", "MiB", lo}, {"runtime.peak_heap_mb", "MiB", lo}, {"runtime.async_preempt_frac", "ratio", lo},
	{"other.self_s", "s", lo}, {"bench.self_s", "s", lo}, {"bench.profile_s", "s", lo},
	{"bench.glue_s", "s", lo}, {"bench.trace_overhead", "ratio", lo},
	// Workload-specific end-to-end figures, from the traced passes.
	{"crash_points_per_s", "1/s", hi}, {"resume_s", "s", lo},
	{"upload_p50_ms", "ms", lo}, {"upload_tail_ms", "ms", lo}, {"upload_tail_pct", "%", hi}, {"upload_samples", "count", hi},
	{"model_err_pct", "%", lo}, {"failed_frac", "ratio", lo},
}

// details summarizes a phase's workload-specific figures: the median
// of each pass's Detail, the upload latency median and tail with its
// percentile and sample count, and the failed fraction.
func details(s *runStats) map[string]float64 {
	out := map[string]float64{}
	for _, p := range s.passes {
		for k := range p.Detail {
			if _, done := out[k]; !done {
				out[k] = s.medianOf(func(p passResult) float64 { return p.Detail[k] })
			}
		}
	}
	var lat []float64
	for _, p := range s.passes {
		lat = append(lat, p.Latencies...)
	}
	if len(lat) > 0 {
		out["upload_p50_ms"], _ = nearestRankOf(lat, 50)
		pct, v, n, _ := tail(lat)
		out["upload_tail_ms"], out["upload_tail_pct"], out["upload_samples"] = v, pct, float64(n)
	}
	if s.attempted > 0 {
		out["failed_frac"] = float64(s.failed) / float64(s.attempted)
	}
	return out
}

// endToEnd turns an untraced phase into the end-to-end metrics.
func endToEnd(s *runStats) result {
	res := result{
		Correct:   s.failed == 0 && len(s.passes) > 0,
		Attempted: max(s.attempted, 1),
		Failed:    s.failed,
		Metrics:   map[string]metric{},
	}
	if len(s.passes) == 0 {
		return res
	}
	v := map[string]float64{
		"wall_s": s.medianOf(func(p passResult) float64 { return p.Wall.Seconds() }),
		"cpu_s":  s.medianOf(func(p passResult) float64 { return p.CPU.Seconds() }),
		"sim_ops_per_s": s.medianOf(func(p passResult) float64 {
			return float64(p.SimOps) / (p.Wall - p.Excluded).Seconds()
		}),
		"setup_s":    median(s.setups),
		"rss_p50_mb": rssPercentileMB(s, 50),
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.Name] = metric{v[m.Name], m.Unit}
	}
	return res
}

// perLayer turns a traced run into the per-layer metrics: the untraced
// phase plain is the baseline for host.cpu_util and the tracing
// overhead; the traced phase tr gives everything else, per pass.
func perLayer(plain, tr *runStats, e *env) result {
	res := result{
		Correct:   plain.failed+tr.failed == 0 && len(plain.passes) > 0 && len(tr.passes) > 0,
		Attempted: max(plain.attempted+tr.attempted, 1),
		Failed:    plain.failed + tr.failed,
		Metrics:   map[string]metric{},
	}
	if len(plain.passes) == 0 || len(tr.passes) == 0 {
		return res
	}
	n := float64(len(tr.passes))
	v := details(tr)
	for _, p := range tr.passes {
		for k := range p.Layer {
			if _, done := v[k]; !done {
				v[k] = tr.medianOf(func(p passResult) float64 { return p.Layer[k] })
			}
		}
	}

	f := e.prof.folded
	for _, l := range layerNames() {
		v[l+".self_s"] = float64(f.Self[l]) / 1e9 / n
	}
	v["bench.profile_s"] = float64(f.Total) / 1e9 / n
	v["runtime.async_preempt_frac"] = ratio(float64(f.AsyncPreempt), float64(f.Total))
	v["runtime.gc_cycles"] = float64(e.prof.gcCycles) / n
	v["runtime.gc_cpu_s"] = e.prof.gcCPU / n
	v["runtime.alloc_mb"] = float64(e.prof.allocs) / (1 << 20) / n
	v["runtime.peak_heap_mb"] = float64(e.prof.peakHeap) / (1 << 20)

	spans := selfTimes(e.rec.Spans())
	perPass := func(name string) float64 { return spans[name].Total.Seconds() / n }
	v["engine.step_s"] = perPass("engine.StepBatch") + perPass("engine.System.Run")
	v["engine.new_s"] = perPass("engine.New") + perPass("engine.NewSystem")
	v["workload.next_batch_s"] = perPass("workload.NextBatch")
	v["service.upload_s"] = perPass("service.upload")
	v["service.finalize_s"] = perPass("service.finalize")
	v["bench.glue_s"] = spans["cell"].Self.Seconds() / n

	gmp := float64(runtime.GOMAXPROCS(0))
	v["host.cpu_util"] = plain.medianOf(func(p passResult) float64 { return p.CPU.Seconds() / (p.Wall.Seconds() * gmp) })
	v["host.rss_p95_mb"] = rssPercentileMB(plain, 95)
	wall := func(p passResult) float64 { return p.Wall.Seconds() }
	v["bench.trace_overhead"] = tr.medianOf(wall)/plain.medianOf(wall) - 1

	for _, m := range perLayerMetrics {
		res.Metrics[m.Name] = metric{v[m.Name], m.Unit}
	}
	return res
}

// rssPercentileMB is the p-th percentile, in MiB, of the resident set
// sampled through a phase's measured passes. The median is the
// end-to-end memory metric: the largest samples ride the garbage
// collector's sawtooth and moved 12-26% between runs of one workload,
// the median about 1%.
func rssPercentileMB(s *runStats, p float64) float64 {
	var xs []float64
	for _, ps := range s.passes {
		xs = append(xs, ps.RSS...)
	}
	if len(xs) == 0 {
		return 0
	}
	v, _ := nearestRankOf(xs, p)
	return v / (1 << 20)
}
