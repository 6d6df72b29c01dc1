// Command benchmark is the repository's performance yardstick: six
// closed-loop workloads over the composed pipeline (dual → pool → cache
// → counter), the cache on its own, and the lock-free map, skip list,
// queue and stack on a shared reclamation domain. BENCHMARK.json at the
// repository root names the workloads and metrics and fixes how much
// each end-to-end metric may get worse; README.md in this directory
// says why each workload exists and which per-layer metric should move
// which end-to-end one.
//
// The program imports only the module's public packages and measures
// them from outside — timing calls, reading Stats() — so that a change
// to bench/ or to an internal package cannot move the yardstick.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash benchmark/run.sh --workload cache_hit --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -o A.json             # all six workloads, one record
//	bash benchmark/run.sh --trace 1             # per-layer metrics and span files
//	bash benchmark/run.sh -compare A.json B.json
//
// An untraced run prints every end-to-end metric, a traced run every
// per-layer metric. With one workload the last line of standard output
// is a JSON object {correct, attempted, failed, metrics}. The exit
// status is 1 when any op failed its check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	untracedTrials = 5
	// Both paths are relative to the repository root, where run.sh is
	// started from.
	specFile = "BENCHMARK.json"
	traceDir = ".bench_build/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of every input stream")
	seconds := fs.Float64("seconds", 15, "measured time of an untraced run; a trial is a fifth of it")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the spans")
	out := fs.String("o", "", "also write the results as one JSON record to this file")
	compare := fs.Bool("compare", false, "compare two records: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two record files")
			return 2
		}
		if err := compareRecords(stdout, specFile, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}

	cfg := defaultConfig(*seed, time.Duration(*seconds*float64(time.Second))/untracedTrials)
	runtime.GOMAXPROCS(cfg.g)
	rec, err := runAll(selected, cfg, *trace == 1, traceDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return exitCode(rec)
}

// exitCode is 1 when any op of any workload failed its check.
func exitCode(rec *record) int {
	for _, r := range rec.Results {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// defaultConfig is the load shape of a real run: G = min(nproc, 4)
// client goroutines on as many Ps, a 1 s warm-up, five trials.
func defaultConfig(seed uint64, trialDur time.Duration) *config {
	return &config{
		seed:      seed,
		g:         min(runtime.NumCPU(), 4),
		trials:    untracedTrials,
		trialDur:  trialDur,
		warmDur:   min(time.Second, trialDur),
		streamLen: 1 << 20,
		probeDur:  time.Second,
	}
}

// record is one run set: the calibration block and every workload's
// result. -o writes it and -compare reads two of them.
type record struct {
	Env     env                    `json:"env"`
	Traced  bool                   `json:"traced"`
	Results map[string]*jsonResult `json:"results"`
}

// jsonResult is the object the driver reads from the last line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAll calibrates, runs the selected workloads and prints each
// result: one line per metric, then the result as a JSON object.
func runAll(selected []*workload, cfg *config, traced bool, traceDir string, stdout io.Writer) (*record, error) {
	rec := &record{Env: calibrate(cfg), Traced: traced, Results: make(map[string]*jsonResult)}
	meta, err := json.Marshal(rec.Env)
	if err != nil {
		return nil, fmt.Errorf("encode calibration: %w", err)
	}
	fmt.Fprintf(stdout, "# env %s\n", meta)
	if rec.Env.StallsPerS > stallWarning {
		fmt.Fprintf(stdout, "# warning: %.0f host stalls > 1 ms per second; tail latencies on this box mostly measure the host\n", rec.Env.StallsPerS)
	}
	for _, w := range selected {
		var res *result
		if traced {
			spanFile := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
			if res, err = runTraced(w, cfg, spanFile, stdout); err != nil {
				return nil, err
			}
		} else {
			res = runUntraced(w, cfg)
		}
		jr := &jsonResult{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]jsonMetric)}
		for _, m := range res.metrics {
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.name, m.name, m.value, m.unit)
			jr.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
		fmt.Fprintf(stdout, "%s ops_attempted %d\n%s ops_failed %d\n%s latency_samples %d\n",
			w.name, res.attempted, w.name, res.failed, w.name, res.samples)
		rec.Results[w.name] = jr
		line, err := json.Marshal(jr)
		if err != nil {
			return nil, fmt.Errorf("encode %s result: %w", w.name, err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return rec, nil
}

func writeRecord(path string, rec *record) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	return nil
}
