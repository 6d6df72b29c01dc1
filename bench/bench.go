package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/internal/zipf"
)

// Result is one measured configuration.
type Result struct {
	// Workers is the number of concurrent workers.
	Workers int
	// Ops is the total operations completed.
	Ops int64
	// Elapsed is the wall-clock duration of the measured region.
	Elapsed time.Duration
	// Latency holds per-operation latency samples when the configuration
	// was measured with RunLatency; nil for plain Run.
	Latency *Histogram
	// Gauges carries end-of-run structure gauges (e.g. the reclamation
	// cells' pending_garbage and reclaimed counts); nil when the cell has
	// none.
	Gauges map[string]float64
	// Percent is the headline of a cell that reports a rate (an
	// elimination hit rate) instead of throughput; see ScenarioAlgo.Percent.
	Percent float64
}

// Throughput returns million operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// NsPerOp returns nanoseconds per operation.
func (r Result) NsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) / float64(r.Ops)
}

// Record converts the result into the labelled form a Report carries,
// folding in latency percentiles when the result sampled them.
func (r Result) Record(family, algo, scenario string) Record {
	rec := Record{
		Family:    family,
		Algo:      algo,
		Scenario:  scenario,
		Threads:   r.Workers,
		Ops:       r.Ops,
		ElapsedNs: r.Elapsed.Nanoseconds(),
		Value:     r.Throughput(),
		Unit:      UnitMops,
		NsPerOp:   r.NsPerOp(),
	}
	if r.Latency != nil && r.Latency.Count() > 0 {
		s := r.Latency.Summary()
		rec.P50Ns = s.P50
		rec.P90Ns = s.P90
		rec.P99Ns = s.P99
		rec.P999Ns = s.P999
		rec.Samples = s.Samples
	}
	if len(r.Gauges) > 0 {
		rec.Gauges = r.Gauges
	}
	return rec
}

// Units a Record's headline Value can carry. Throughput cells use
// UnitMops; derived metrics (e.g. the elimination hit-rate tables) label
// themselves so consumers never mistake a percentage for a throughput.
const (
	UnitMops    = "mops"
	UnitPercent = "percent"
)

// Record is one measured cell of a Report: a (family, algorithm, scenario,
// threads) coordinate with its throughput and, when sampled, latency
// percentiles. See the package documentation for the JSON schema.
type Record struct {
	Family    string  `json:"family"`
	Algo      string  `json:"algo"`
	Scenario  string  `json:"scenario"`
	Threads   int     `json:"threads"`
	Ops       int64   `json:"ops,omitempty"`
	ElapsedNs int64   `json:"elapsed_ns,omitempty"`
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	NsPerOp   float64 `json:"ns_per_op,omitempty"`
	P50Ns     int64   `json:"p50_ns,omitempty"`
	P90Ns     int64   `json:"p90_ns,omitempty"`
	P99Ns     int64   `json:"p99_ns,omitempty"`
	P999Ns    int64   `json:"p999_ns,omitempty"`
	Samples   uint64  `json:"samples,omitempty"`
	// Gauges carries end-of-run structure gauges keyed by name. The
	// reclamation cells (F12, the reclaim-structs scenarios) report
	// pending_garbage and reclaimed here; absent on other records.
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

// Meta describes the environment a Report was produced in, so that two
// BENCH_*.json files are only ever compared with their context attached.
type Meta struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GitRevision string `json:"git_revision"`
	Quick       bool   `json:"quick"`
	UnixTime    int64  `json:"unix_time"`
}

// Report is the machine-readable output of a benchmark run: environment
// metadata plus every measured record. It is the unit cmd/cdsbench
// serializes and future revisions diff against checked-in baselines.
type Report struct {
	Schema string `json:"schema"`
	Meta   Meta   `json:"meta"`
	// Summary frames the records in terms of the hardware that produced
	// them — num_cpu leads, because it decides whether thread sweeps
	// measure parallel speedup or time-slicing. See RunSummary.
	Summary string   `json:"summary,omitempty"`
	Records []Record `json:"records"`
}

// ReportSchema identifies the current JSON layout.
const ReportSchema = "cds-bench/v1"

// NewMeta captures the current environment. The git revision comes from
// the binary's embedded VCS build info when present ("unknown" otherwise —
// callers with better context, like cmd/cdsbench, may overwrite it).
func NewMeta(quick bool) Meta {
	return Meta{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GitRevision: vcsRevision(),
		Quick:       quick,
		UnixTime:    time.Now().Unix(),
	}
}

// RunSummary renders the context a reader needs before comparing any two
// records. num_cpu comes first: worker counts beyond it time-share cores,
// so throughput ratios between algorithms compress or invert relative to
// genuinely parallel hardware. The segmented-queue family (S18/A5) is the
// worked example — its headline claim is only legible on real cores, and
// below that the per-record gauges carry the evidence instead.
func RunSummary(m Meta) string {
	return fmt.Sprintf(
		"num_cpu=%d gomaxprocs=%d — thread counts beyond num_cpu measure "+
			"time-slicing, not parallel speedup. Segmented-queue bar (S18/A5): "+
			"on >=4 real cores queue.LCRQ is expected to beat queue.MS by >=3x "+
			"at 4 threads; on fewer cores that ratio is not observable and the "+
			"S18 gauges carry the evidence instead — enq_slowpath and "+
			"deq_abandoned staying small relative to enqueues/dequeues shows "+
			"the single-FAA fast path dominating. Combining-backend sweep "+
			"(S13): CC-Synch/DSM-Synch are expected to overtake flat "+
			"combining only when real cores keep many waiters pending; below "+
			"that, compare the avg_batch and handoffs gauges across the "+
			"FlatCombining/CC-Synch/DSM-Synch rows of one cell — growing "+
			"batches are the signature of delegation working.",
		m.NumCPU, m.GOMAXPROCS)
}

func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// WriteJSON serializes the report, indented for reviewable diffs.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("bench: encode report: %w", err)
	}
	return nil
}

// Run executes a workload: workers goroutines each perform opsPerWorker
// calls of the closure returned by mkOp. mkOp runs before the clock starts
// (setup excluded from timing), and all workers start together.
func Run(workers, opsPerWorker int, mkOp func(w int) func(i int)) Result {
	ops := make([]func(i int), workers)
	for w := 0; w < workers; w++ {
		ops[w] = mkOp(w)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(op func(int)) {
			defer wg.Done()
			<-start
			for i := 0; i < opsPerWorker; i++ {
				op(i)
			}
		}(ops[w])
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return Result{
		Workers: workers,
		Ops:     int64(workers) * int64(opsPerWorker),
		Elapsed: time.Since(t0),
	}
}

// KeyStream produces a deterministic stream of keys in [0, n) for one
// worker, either uniform or Zipfian.
type KeyStream struct {
	uni *xrand.Rand
	zip *zipf.Generator
	n   uint64
}

// NewKeyStream returns a stream over [0, n). theta == 0 selects uniform;
// otherwise Zipfian with the given skew.
func NewKeyStream(n uint64, theta float64, seed uint64) (*KeyStream, error) {
	if theta == 0 {
		return &KeyStream{uni: xrand.New(seed), n: n}, nil
	}
	g, err := zipf.New(n, theta, seed)
	if err != nil {
		return nil, fmt.Errorf("bench: key stream: %w", err)
	}
	return &KeyStream{zip: g, n: n}, nil
}

// Next returns the next key.
func (s *KeyStream) Next() uint64 {
	if s.zip != nil {
		return s.zip.Next()
	}
	return s.uni.Uint64n(s.n)
}

// Point is one (threads, throughput) sample of a series.
type Point struct {
	// X is the sweep parameter (usually thread count).
	X int
	// Mops is the record's headline value: throughput in million ops/sec
	// (microseconds in the p99 tables, a percentage in hit-rate rows).
	Mops float64
}

// Series is one labelled curve of an experiment figure.
type Series struct {
	// Label names the algorithm/configuration.
	Label string
	// Points are the samples in sweep order.
	Points []Point
}

// Figure is a rendered experiment: several series over a shared sweep.
// Figures are the text-mode view of an experiment's records; see
// Experiment.Run.
type Figure struct {
	// ID is the experiment identifier (e.g. "F1"); the experiment index
	// is the Experiments list.
	ID string
	// Title describes the figure.
	Title string
	// XLabel names the sweep parameter.
	XLabel string
	// Series are the curves.
	Series []Series
}

// Render writes the figure as an aligned text table: one row per X value,
// one column per series — directly comparable with the survey's plots.
func (f Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	// Collect the union of X values.
	xs := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]int, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Ints(sorted)

	if _, err := fmt.Fprintf(w, "%-10s", f.XLabel); err != nil {
		return err
	}
	for _, s := range f.Series {
		if _, err := fmt.Fprintf(w, " %14s", s.Label); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, x := range sorted {
		if _, err := fmt.Fprintf(w, "%-10d", x); err != nil {
			return err
		}
		for _, s := range f.Series {
			val := "-"
			for _, p := range s.Points {
				if p.X == x {
					val = fmt.Sprintf("%.3f", p.Mops)
					break
				}
			}
			if _, err := fmt.Fprintf(w, " %14s", val); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// DefaultThreadSweep returns the standard 1..max thread ladder used by all
// scalability figures: 1, 2, 4, ... up to max (always including max).
func DefaultThreadSweep(max int) []int {
	var sweep []int
	for t := 1; t < max; t *= 2 {
		sweep = append(sweep, t)
	}
	return append(sweep, max)
}
