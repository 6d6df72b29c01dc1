package main

import (
	"fmt"
	"io"
	"path/filepath"
)

// A workload is one closed-loop load on some of the module's layers.
// The six come in pairs that drive the same layers in two ways, so that
// a change to one mechanism has a workload that exercises it and one
// that bypasses it (benchmark/README.md has the table).
type workload struct {
	name  string
	build func(cfg *config, trial int, twin bool) instance
	// twin names what the traced run's comparison cell measures, if the
	// workload has one.
	twin twinKind
	// pipeline workloads run a client, a dispatcher and G-1 pool
	// workers instead of G identical goroutines.
	pipeline bool
}

type twinKind int

const (
	noTwin        twinKind = iota
	twinAdmission          // same cache without TinyLFU, traced: isolates internal/sketch
	twinReclaim            // same structures on the GC domain, untraced: isolates reclaim
)

var workloads = []*workload{
	{name: "pipeline_rtt", build: buildPipeline("pipeline_rtt", 1), pipeline: true},
	{name: "pipeline_sat", build: buildPipeline("pipeline_sat", 64), pipeline: true},
	{name: "cache_hit", build: cacheHitSpec.build, twin: twinAdmission},
	{name: "cache_churn", build: cacheChurnSpec.build},
	{name: "index_read", build: indexReadSpec.build, twin: twinReclaim},
	{name: "lockfree_churn", build: lockfreeChurnSpec.build, twin: twinReclaim},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tracedGoroutines is the number of span buffers a traced trial needs.
func (w *workload) tracedGoroutines(g int) int {
	if w.pipeline {
		return bufWorker0 + max(1, g-1)
	}
	return g
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// result is what one run of one workload reports: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
type result struct {
	workload  string
	attempted uint64
	failed    uint64
	samples   uint64 // latency samples behind the percentiles
	metrics   []metric
}

// endToEndUnits lists the end-to-end metrics in report order.
var endToEndUnits = [][2]string{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ns", "ns"},
	{"latency_p99_ns", "ns"},
	{"cpu_ns_per_op", "ns"},
	{"allocs_per_op_plus1", "count"},
	{"bytes_per_op_plus1", "B"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// runUntraced is the run the end-to-end metrics come from: a warm-up
// trial, then cfg.trials timed trials on freshly built structures.
// Rates and costs are medians over the trials; the percentiles are
// taken over the pooled latency samples of all of them.
func runUntraced(w *workload, cfg *config) *result {
	res := &result{workload: w.name}
	warm := runTrial(w, cfg, -1, cfg.warmDur, false, false)
	setup := []float64{warm.setup.Seconds()}
	var tput, cpu, allocs, bytes, heap []float64
	pooled := new(histogram)
	for trial := 0; trial < cfg.trials; trial++ {
		t := runTrial(w, cfg, trial, cfg.trialDur, false, false)
		ops := float64(t.ops)
		res.attempted += t.ops
		res.failed += t.failed
		pooled.merge(t.hist)
		tput = append(tput, t.throughput())
		cpu = append(cpu, float64(t.cpuNs)/ops)
		allocs = append(allocs, float64(t.mallocs)/ops)
		bytes = append(bytes, float64(t.bytes)/ops)
		heap = append(heap, float64(t.liveHeap)/1e6)
		setup = append(setup, t.setup.Seconds())
	}
	res.samples = pooled.n
	values := []float64{
		median(tput),
		pooled.quantile(0.50),
		pooled.quantile(0.99),
		median(cpu),
		// allocs and bytes per op are exactly 0 on the workloads that do
		// not allocate, and a bound that is a share of the value cannot
		// gate a 0; one is added so that 2 % means at least 0.02.
		1 + median(allocs),
		1 + median(bytes),
		median(heap),
		median(setup),
	}
	for i, m := range endToEndUnits {
		res.metrics = append(res.metrics, metric{m[0], m[1], values[i]})
	}
	return res
}

// perLayerUnits lists the per-layer metrics in report order. Every
// traced run reports all of them; a layer the workload does not touch
// reads 0.
var perLayerUnits = [][2]string{
	{"dual.put_ns", "ns"}, {"dual.take_ns", "ns"}, {"dual.tryenqueue_ns", "ns"}, {"dual.queue_wait_ns", "ns"},
	{"dual.parks_per_op", "count"}, {"dual.reservations_per_op", "count"},
	{"pool.submit_ns", "ns"}, {"pool.sched_wait_ns", "ns"}, {"pool.spawn_ns", "ns"}, {"pool.parks_per_op", "count"},
	{"pool.local_hit_ratio", "ratio"}, {"pool.inject_ratio", "ratio"}, {"pool.steal_ratio", "ratio"},
	{"cache.getorload_hit_ns", "ns"}, {"cache.getorload_miss_self_ns", "ns"}, {"cache.get_ns", "ns"},
	{"cache.set_ns", "ns"}, {"cache.delete_ns", "ns"}, {"cache.hit_ratio", "ratio"}, {"cache.loads_per_op", "count"},
	{"cache.stampede_suppressed_per_op", "count"}, {"cache.evictions_per_op", "count"},
	{"cache.admission_reject_ratio", "ratio"}, {"cache.admission_overhead_ns", "ns"},
	{"counter.add_ns", "ns"},
	{"cmap.load_ns", "ns"}, {"cmap.store_ns", "ns"}, {"cmap.delete_ns", "ns"},
	{"skiplist.contains_ns", "ns"}, {"skiplist.add_ns", "ns"}, {"skiplist.remove_ns", "ns"},
	{"queue.enqueue_ns", "ns"}, {"queue.dequeue_ns", "ns"}, {"stack.push_ns", "ns"}, {"stack.pop_ns", "ns"},
	{"reclaim.guard_overhead_ns", "ns"}, {"reclaim.retire_overhead_ns", "ns"},
	{"reclaim.pending_end", "count"}, {"reclaim.reclaimed_per_op", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.gc_cpu_frac", "ratio"},
	{"latency_p999_ns", "ns"}, {"trace.overhead_frac", "ratio"},
}

// spanMetrics maps a span name to the *_ns metric that is its mean.
var spanMetrics = map[uint8]string{
	spPut: "dual.put_ns", spTakeCredit: "dual.take_ns", spTryEnqueueCredit: "dual.tryenqueue_ns",
	spQueueWait: "dual.queue_wait_ns", spSubmit: "pool.submit_ns", spSchedWait: "pool.sched_wait_ns",
	spSpawn: "pool.spawn_ns", spCacheGet: "cache.get_ns", spCacheSet: "cache.set_ns",
	spCacheDelete: "cache.delete_ns", spCounterAdd: "counter.add_ns",
	spMapLoad: "cmap.load_ns", spMapStore: "cmap.store_ns", spMapDelete: "cmap.delete_ns",
	spSkipContains: "skiplist.contains_ns", spSkipAdd: "skiplist.add_ns", spSkipRemove: "skiplist.remove_ns",
	spEnqueue: "queue.enqueue_ns", spDequeue: "queue.dequeue_ns", spPush: "stack.push_ns", spPop: "stack.pop_ns",
}

// runTraced is the run the per-layer metrics come from: a warm-up, an
// untraced reference trial, the traced trial, and the workload's twin
// cell if it has one. Span means and Stats() counts are the traced
// trial's; the reference trial gives the tracing overhead and the
// run-time's own numbers. The spans go to spanFile.
func runTraced(w *workload, cfg *config, spanFile string, log io.Writer) (*result, error) {
	runTrial(w, cfg, -1, cfg.warmDur, false, false)
	ref := runTrial(w, cfg, 0, cfg.trialDur, false, false)
	traced := runTrial(w, cfg, 0, cfg.trialDur, false, true)
	sum := summarize(traced.spans)

	res := &result{workload: w.name, attempted: ref.ops + traced.ops, failed: ref.failed + traced.failed, samples: ref.hist.n}
	m := traced.layers
	for name, metricName := range spanMetrics {
		m[metricName] = sum.byName[name].mean()
	}
	m["cache.getorload_hit_ns"] = sum.getOrLoadHit.mean()
	m["cache.getorload_miss_self_ns"] = sum.getOrLoadMiss.selfMean()
	m["runtime.gc_cycles"] = float64(ref.gcCycles)
	m["runtime.gc_pause_ms"] = float64(ref.gcPauseNs) / 1e6
	m["runtime.gc_cpu_frac"] = ref.gcCPUFrac
	m["latency_p999_ns"] = ref.hist.quantile(0.999)
	m["trace.overhead_frac"] = 1 - traced.throughput()/ref.throughput()

	// nsPerOp is goroutine time per op: all G goroutines run for wall.
	nsPerOp := func(t *trialResult) float64 { return float64(t.wall.Nanoseconds()) * float64(cfg.g) / float64(t.ops) }
	switch w.twin {
	case twinAdmission:
		twin := runTrial(w, cfg, 0, cfg.trialDur, true, true)
		res.attempted, res.failed = res.attempted+twin.ops, res.failed+twin.failed
		m["cache.admission_overhead_ns"] = m["cache.get_ns"] - summarize(twin.spans).byName[spCacheGet].mean()
	case twinReclaim:
		twin := runTrial(w, cfg, 0, cfg.trialDur, true, false)
		res.attempted, res.failed = res.attempted+twin.ops, res.failed+twin.failed
		name := "reclaim.guard_overhead_ns"
		if w.name == lockfreeChurnSpec.name {
			name = "reclaim.retire_overhead_ns"
		}
		m[name] = nsPerOp(ref) - nsPerOp(twin)
	}

	for _, pm := range perLayerUnits {
		res.metrics = append(res.metrics, metric{pm[0], pm[1], m[pm[0]]})
	}
	fmt.Fprintf(log, "# %s trace: %d spans; span means (self) in ns:", w.name, len(traced.spans))
	for name, a := range sum.byName {
		if a.count > 0 {
			fmt.Fprintf(log, " %s=%.0f(%.0f)x%d", spanNames[name], a.mean(), a.selfMean(), a.count)
		}
	}
	fmt.Fprintln(log)
	if err := writeSpans(spanFile, w.name, cfg.seed, traced.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# %s spans written to %s\n", w.name, filepath.ToSlash(spanFile))
	return res, nil
}
