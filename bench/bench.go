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
	// Latency holds the sampled per-operation latencies (Run times one
	// operation in every block of SampleEvery); nil on cells that time
	// nothing per operation.
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
	if h := r.Latency; h != nil && h.Count() > 0 {
		rec.P50Ns, rec.P90Ns, rec.P99Ns, rec.P999Ns = h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Percentile(99.9)
		rec.Samples = h.Count()
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
	// Trials is the number of measured trials behind the record. With more
	// than one, the record is the median trial by Value, and [Lo, Hi] and
	// [P99LoNs, P99HiNs] span the trials' values and p99s.
	Trials  int     `json:"trials,omitempty"`
	Lo      float64 `json:"lo,omitempty"`
	Hi      float64 `json:"hi,omitempty"`
	P99LoNs int64   `json:"p99_lo_ns,omitempty"`
	P99HiNs int64   `json:"p99_hi_ns,omitempty"`
	// Gauges carries end-of-run structure gauges keyed by name. The
	// reclamation cells (F12, the reclaim-structs scenarios) report
	// pending_garbage and reclaimed here; absent on other records.
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

// Meta describes the environment a Report was produced in, so that two
// reports are only ever compared with their context attached (DiffReports
// refuses to judge across different NumCPU, GOMAXPROCS or Quick).
type Meta struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GitRevision string `json:"git_revision"`
	Quick       bool   `json:"quick"`
	UnixTime    int64  `json:"unix_time"`
	// TimerNs is the calibrated cost of the clock pair Run puts around each
	// sampled operation; percentiles are reported raw, not net of it.
	TimerNs float64 `json:"timer_ns"`
}

// Report is the machine-readable output of a benchmark run: environment
// metadata plus every measured record. It is the unit cmd/cdsbench
// serializes and cmd/benchdiff compares; BENCH.json is the checked-in one.
type Report struct {
	Schema  string   `json:"schema"`
	Meta    Meta     `json:"meta"`
	Records []Record `json:"records"`
}

// ReportSchema identifies the current JSON layout.
const ReportSchema = "cds-bench/v2"

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
		TimerNs:     timerCost(),
	}
}

// timerCost measures the cost of one back-to-back clock pair: the median
// over batches, so that a host stall inside one batch does not move it.
func timerCost() float64 {
	const batches, pairs = 21, 5000
	cost := make([]float64, batches)
	for b := range cost {
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			_ = time.Since(time.Now())
		}
		cost[b] = float64(time.Since(t0).Nanoseconds()) / pairs
	}
	sort.Float64s(cost)
	return cost[batches/2]
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

// SampleEvery is the sampling period of Run: one operation in every block
// of this many is individually timed.
const SampleEvery = 64

// samplePos is the position inside block b at which worker w's operation
// is timed. It is drawn per block, not strided: a fixed stride would alias
// with MixGen's block of 100 and with the burst-64 producers.
func samplePos(w, b, blockLen int) int {
	x := uint64(w)<<32 + uint64(b)
	return int(xrand.SplitMix64(&x) % uint64(blockLen))
}

// Run is the one way a cell is timed: workers goroutines each perform
// opsPerWorker calls of the closure returned by mkOp. mkOp runs before the
// clock starts (setup excluded from timing), all workers start together,
// and each worker times one call per block of SampleEvery into its own
// histogram; the rest run untimed, so the clock reads cost the cell's
// throughput 1/SampleEvery of what timing every call would. A closure may
// end its worker early with runtime.Goexit (the wall-bounded blocking
// cells do); Ops counts the calls that returned.
func Run(workers, opsPerWorker int, mkOp func(w int) func(i int)) Result {
	ops, hists, done := make([]func(i int), workers), newHists(workers), make([]int, workers)
	for w := range ops {
		ops[w] = mkOp(w)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			op, h, i := ops[w], hists[w], 0
			defer func() { done[w] = i; wg.Done() }()
			<-start
			for b := 0; i < opsPerWorker; b++ {
				end := min(i+SampleEvery, opsPerWorker)
				timed := i + samplePos(w, b, end-i)
				for ; i < timed; i++ {
					op(i)
				}
				t0 := time.Now()
				op(i)
				h.Record(time.Since(t0).Nanoseconds())
				for i++; i < end; i++ {
					op(i)
				}
			}
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	res := Result{Workers: workers, Elapsed: time.Since(t0), Latency: mergeHists(hists)}
	for _, n := range done {
		res.Ops += int64(n)
	}
	return res
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
