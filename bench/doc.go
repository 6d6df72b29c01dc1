// Package bench is the measurement harness behind the experiment suite:
// deterministic workload generation (uniform and Zipfian key streams), a
// worker runner with a synchronised start line, per-operation latency
// sampling into log-bucketed histograms, a mixed-workload scenario engine,
// and two renderers — aligned text tables in the shape the survey figures
// use, and a machine-readable JSON Report for tracking results across
// revisions.
//
// # Experiment index
//
// Experiments lists the suite (cdsbench -list prints it): F1–F12 are the
// throughput-vs-threads figures, T1–T3 the tables, S1–S18 the scenario
// families with latency percentiles, and Ablations adds the A1–A5 knob
// sweeps. Every experiment is a list of Scenario values — a workload, the
// algorithms measured under it, and the sweep — so the record keys of a run
// are known before it starts (Scenario.Plan) and text tables, JSON records
// and the root testing.B entry points all come from the same cells. The
// cells of the catalogued families (F2–F8, F12, T2, S1–S8, S13, S14) are
// derived from package catalog's rows and workload recipes; only the
// experiments whose driver is genuinely bespoke (locks, barriers, STM, the
// raw reclamation schemes, dual, pool, cache, the S18 conservation gauges,
// F9's work-stealing system) are written out here, and those take their
// constructors from the catalogue too.
//
// Use cmd/cdsbench to regenerate every figure/table, or the testing.B
// benches in the repository root for quick single-configuration runs.
// README's "Reading the benchmarks" section walks through interpreting
// the output; the rest of this comment is the schema reference.
// ValidateReport states the gauge invariants every emitted report
// satisfies; cdsbench runs it on every JSON report.
//
// # JSON schema
//
// A serialized Report (cdsbench -format json) is one JSON object:
//
//	{
//	  "schema": "cds-bench/v1",
//	  "meta": {
//	    "go_version":   "go1.24.0",     // runtime.Version()
//	    "goos":         "linux",
//	    "goarch":       "amd64",
//	    "num_cpu":      8,
//	    "gomaxprocs":   8,
//	    "git_revision": "abc1234",      // build/VCS info; "unknown" if absent
//	    "quick":        false,          // -quick smoke sizing was in effect
//	    "unix_time":    1750000000      // seconds; 0 in golden-file tests
//	  },
//	  "records": [ Record... ]
//	}
//
// and each Record is one measured cell:
//
//	{
//	  "family":     "queue",           // structure family ("queue", "cmap", ...)
//	  "algo":       "MS",              // algorithm / implementation label
//	  "scenario":   "enq-heavy-70/30", // workload description
//	  "threads":    4,                 // worker count
//	  "ops":        400000,            // operations completed; omitted on
//	  "elapsed_ns": 12345678,          // figure-derived records (as is
//	  "ns_per_op":  81.6,              // elapsed_ns / ns_per_op), which
//	                                   // keep only the headline value
//	  "value":      12.251,            // headline metric in "unit"
//	  "unit":       "mops",            // "mops" unless noted (e.g. "percent")
//	  "p50_ns":     71,                // latency percentiles; present only
//	  "p90_ns":     102,               // when the cell sampled per-op
//	  "p99_ns":     913,               // latency (scenario records do,
//	  "p999_ns":    4096,              // figure-derived records do not)
//	  "samples":    400000,            // latency samples behind them
//	  "gauges": {                      // end-of-run structure gauges;
//	    "pending_garbage": 128,        // present only on cells that
//	    "reclaimed":       399872      // report them
//	  }
//	}
//
// Gauges are whatever the cell's structure counts: the reclamation cells
// (F12, S14, and any cell built over a deferring domain) carry
// pending_garbage/reclaimed; combining-backed rows the delegation counters
// (batches, ops_combined, max_batch, avg_batch, handoffs); the segmented
// queues their segment-lifecycle counters and the bounded ring its CAS-miss
// counters; the S15 dual cells the waiter-management counters
// reservations/fulfilled/parks/cancelled/handoffs (see dual.Stats; the
// channel baseline carries none); S16–S18 their scheduling, cache
// accounting and conservation gauges. ValidateReport lists the relations
// that hold among them. Blocking cells bound every operation with a
// cancellation deadline, so their latency percentiles include parked time —
// wait behaviour is the measurement, not a distortion of it.
//
// Records are append-only across schema versions: consumers must ignore
// unknown fields, and field removals or meaning changes bump the schema
// string.
package bench
