package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

func testConfig() *config {
	return &config{
		seed:      1,
		g:         max(2, min(runtime.NumCPU(), 4)),
		trials:    untracedTrials,
		trialDur:  50 * time.Millisecond,
		warmDur:   20 * time.Millisecond,
		streamLen: 1 << 14,
		probeDur:  20 * time.Millisecond,
	}
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// printed parses the "<workload> <metric> <value> <unit>" lines of a
// run's output into workload → metric → unit.
func printed(t *testing.T, out string) map[string]map[string]string {
	t.Helper()
	got := make(map[string]map[string]string)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		if _, err := strconv.ParseFloat(f[2], 64); err != nil {
			t.Errorf("metric line %q: value does not parse", line)
		}
		if got[f[0]] == nil {
			got[f[0]] = make(map[string]string)
		}
		got[f[0]][f[1]] = f[3]
	}
	return got
}

// TestSmoke runs every workload, untraced and traced, with 50 ms
// trials, and holds the names and units printed against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	cfg := testConfig()
	old := runtime.GOMAXPROCS(cfg.g)
	defer runtime.GOMAXPROCS(old)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	for _, mode := range []struct {
		traced  bool
		metrics []specMetric
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		var out bytes.Buffer
		rec, err := runAll(workloads, cfg, mode.traced, t.TempDir(), &out)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]map[string]string)
		for _, w := range spec.Workloads {
			want[w.Name] = make(map[string]string)
			for _, m := range mode.metrics {
				want[w.Name][m.Name] = m.Unit
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q is outside the contract", m.Name)
				}
			}
			if !name.MatchString(w.Name) {
				t.Errorf("workload name %q is outside the contract", w.Name)
			}
		}
		if got := printed(t, out.String()); !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%v: printed workloads and metrics differ from BENCHMARK.json\n got %v\nwant %v", mode.traced, got, want)
		}
		for w, r := range rec.Results {
			if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
				t.Errorf("traced=%v %s: attempted %d, failed %d, correct %v", mode.traced, w, r.Attempted, r.Failed, r.Correct)
			}
			for m, v := range r.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s %s = %v", w, m, v.Value)
				}
				if !mode.traced && v.Value <= 0 {
					t.Errorf("end-to-end metric %s %s = %v; must never be 0", w, m, v.Value)
				}
			}
		}
		if mode.traced {
			checkBypasses(t, rec)
		}
	}
}

// checkBypasses holds the traced record against what the workload pairs
// predict: the layer one workload of a pair exercises, the other skips.
func checkBypasses(t *testing.T, rec *record) {
	t.Helper()
	below := func(workload, metric string, limit float64) {
		if v := rec.Results[workload].Metrics[metric].Value; v >= limit {
			t.Errorf("%s %s = %v, predicted < %v", workload, metric, v, limit)
		}
	}
	below("cache_hit", "cache.evictions_per_op", 0.001)
	below("index_read", "reclaim.reclaimed_per_op", 0.1)
	for _, w := range []string{"cache_hit", "cache_churn", "index_read", "lockfree_churn"} {
		below(w, "dual.parks_per_op", 1e-9)
		below(w, "pool.parks_per_op", 1e-9)
	}
	if v := rec.Results["lockfree_churn"].Metrics["reclaim.reclaimed_per_op"].Value; v <= 0.1 {
		t.Errorf("lockfree_churn reclaim.reclaimed_per_op = %v; the workload is there to retire nodes", v)
	}
}

// TestWrongValueCounted pre-fills the caches with wrong values
// and expects the checks to count it and the program to exit non-zero.
func TestWrongValueCounted(t *testing.T) {
	cfg := testConfig()
	cfg.corrupt = true
	for _, name := range []string{"cache_hit", "cache_churn"} {
		res := runTrial(findWorkload(name), cfg, 0, cfg.trialDur, false, false)
		if res.failed == 0 {
			t.Errorf("%s: a wrong cached value was not counted in %d ops", name, res.ops)
		}
	}
	if verifyFailedExit := exitCode(&record{Results: map[string]*jsonResult{"x": {Failed: 1}}}); verifyFailedExit != 1 {
		t.Errorf("exit code with a failed op = %d, want 1", verifyFailedExit)
	}
}

// TestGoldenStreams pins the first 8 inputs of every stream for seed 1
// (trial 0, goroutine 0): the inputs are part of the yardstick.
func TestGoldenStreams(t *testing.T) {
	first := func(name string) []uint32 {
		rng := streamSeed(1, name, 0, 0)
		switch name {
		case "cache_hit":
			return cacheHitSpec.stream(newZipf(cacheHitSpec.keys, cacheHitSpec.theta), &rng, 8)
		case "cache_churn":
			return cacheChurnSpec.stream(newZipf(cacheChurnSpec.keys, cacheChurnSpec.theta), &rng, 8)
		case "index_read":
			return indexReadSpec.stream(&rng, 8, 0, 2)
		case "lockfree_churn":
			return lockfreeChurnSpec.stream(&rng, 8, 0, 2)
		}
		return pipelineStream(newZipf(pipelineKeys, pipelineTheta), &rng, 8)
	}
	golden := map[string][]uint32{
		"pipeline_rtt":   {0xab7b, 0x5420, 0xe094, 0x8914, 0x0, 0x6075, 0x4ae1, 0x2fcf},
		"pipeline_sat":   {0x53bc, 0x4e21, 0x0, 0x79b1, 0x2507, 0x6d13, 0xcd88, 0x3b38},
		"cache_hit":      {0x10079b1, 0xd5ab, 0x315f, 0x2131, 0x0, 0x6898, 0x53d7, 0xc90d},
		"cache_churn":    {0x300475c, 0x303877e, 0x30365cd, 0x3033620, 0x3001d40, 0x101fd0e, 0x301d8eb, 0x2011ef1},
		"index_read":     {0x14fe, 0x1200005c, 0x100249c, 0x747, 0x10003d0b, 0xeb4, 0x10002e2c, 0x27f4},
		"lockfree_churn": {0x1003744, 0x12002968, 0x20000000, 0x30000000, 0x100111a, 0x1100112e, 0x20000000, 0x30000000},
	}
	for _, w := range workloads {
		if got, want := first(w.name), golden[w.name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: first inputs for seed 1 are %#v, want %#v", w.name, got, want)
		}
	}
}

func TestZipfShape(t *testing.T) {
	z := newZipf(1<<16, 0.99)
	rng := splitmix(7)
	const n = 200000
	top := 0
	for i := 0; i < n; i++ {
		r := z.rank(&rng)
		if r >= z.n {
			t.Fatalf("rank %d out of range", r)
		}
		if r == 0 {
			top++
		}
	}
	// P(rank 0) = 1/zeta(n): about 8.7 % for n = 2^16, θ = 0.99.
	if p, want := float64(top)/n, 1/z.zetan; math.Abs(p-want) > 0.1*want {
		t.Errorf("P(rank 0) = %.4f, want about %.4f", p, want)
	}
	keys := make(map[uint64]bool)
	for r := uint64(0); r < z.n; r++ {
		keys[z.keyOfRank(r)] = true
	}
	if len(keys) != int(z.n) {
		t.Errorf("keyOfRank maps %d ranks to %d keys; want a bijection", z.n, len(keys))
	}
}

// TestHistogramQuantiles checks the percentiles against a sorted copy
// of the samples, over five orders of magnitude.
func TestHistogramQuantiles(t *testing.T) {
	rng := splitmix(42)
	var h histogram
	var samples []float64
	for i := 0; i < 200000; i++ {
		v := int64(math.Exp(rng.float() * math.Log(5e6))) // log-uniform on [1, 5e6]
		h.add(v)
		samples = append(samples, float64(v))
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := samples[int(q*float64(len(samples)))-1]
		if got := h.quantile(q); math.Abs(got-want) > 0.008*want+1 {
			t.Errorf("quantile(%v) = %v, sorted slice says %v", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<41 + 12345} {
		lo, width := histBounds(histIndex(v))
		if v < lo || v >= lo+width || float64(width) > 0.008*float64(lo)+1 {
			t.Errorf("value %d landed in bucket [%d, %d)", v, lo, lo+width)
		}
	}
}

func TestSelfTimeAndWaits(t *testing.T) {
	spans := []span{
		{id: rootSpan | 1, req: 1, name: spRequest, start: 0, end: 100},
		{id: 2, parent: rootSpan | 1, req: 1, name: spPut, start: 10, end: 30},
		{id: 3, parent: rootSpan | 1, req: 1, name: spQueueWait, start: 45, end: 45}, // start fixed to put's end
		{id: 4, parent: rootSpan | 1, req: 1, name: spSubmit, start: 45, end: 60},
		{id: 5, parent: rootSpan | 1, req: 1, name: spSchedWait, start: 55, end: 55}, // entered before Submit returned
		{id: 6, parent: rootSpan | 1, req: 1, name: spGetOrLoad, start: 60, end: 90},
		{id: 7, parent: 6, req: 1, name: spLoader, start: 65, end: 85},
		{id: 8, parent: rootSpan | 1, req: 1, name: spGetOrLoad, start: 90, end: 95},
	}
	fixWaits(spans)
	if s := spans[2]; s.start != 30 || s.end != 45 {
		t.Errorf("queue_wait = [%d, %d], want [30, 45]", s.start, s.end)
	}
	if s := spans[4]; s.start != 55 || s.end != 55 {
		t.Errorf("sched_wait = [%d, %d], want zero length at 55", s.start, s.end)
	}
	sum := summarize(spans)
	// Children cover [10,30] ∪ [30,45] ∪ [45,60] ∪ [60,95] = 85 of 100.
	if got := sum.byName[spRequest].selfSum; got != 15 {
		t.Errorf("request self time = %d, want 15", got)
	}
	if hit, miss := sum.getOrLoadHit, sum.getOrLoadMiss; hit.count != 1 || hit.sum != 5 || miss.count != 1 || miss.selfSum != 10 {
		t.Errorf("getorload hit %+v miss %+v; want one 5 ns hit and one miss with 10 ns self time", hit, miss)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b, bound  float64
		better, want string
	}{
		{100, 104, 0.05, "lower", "ok"},
		{100, 106, 0.05, "lower", "worse"},
		{100, 94, 0.05, "lower", "better"},
		{100, 94, 0.05, "higher", "worse"},
		{100, 106, 0.05, "higher", "better"},
		{100, 96, 0.05, "higher", "ok"},
	} {
		if got := verdict(c.a, c.b, c.bound, c.better); got != c.want {
			t.Errorf("verdict(%v, %v, %v, %s) = %s, want %s", c.a, c.b, c.bound, c.better, got, c.want)
		}
	}
}

// TestImportsPublicOnly keeps the yardstick independent of the code
// the roadmap plans to refactor: no bench, no internal packages.
func TestImportsPublicOnly(t *testing.T) {
	const module = "github.com/cds-suite/cds/"
	public := map[string]bool{"dual": true, "pool": true, "cache": true, "counter": true, "cmap": true,
		"skiplist": true, "queue": true, "stack": true, "reclaim": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if rest, ok := strings.CutPrefix(path, module); ok && !public[rest] {
				t.Errorf("%s imports %s; only the public packages under test are allowed", file, path)
			}
		}
	}
}

// TestSpecLimits holds BENCHMARK.json to the limits of the driver's
// contract that a typo could break.
func TestSpecLimits(t *testing.T) {
	spec := readSpec(t)
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, w := range spec.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %s: why has %d characters, or the name repeats", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	for _, m := range spec.PerLayer {
		if !unit.MatchString(m.Unit) || seen[m.Name] || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
		seen[m.Name] = true
	}
	if !hasSetup || len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("setup_s present: %v; %d workloads, %d end-to-end and %d per-layer metrics", hasSetup, len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
}
