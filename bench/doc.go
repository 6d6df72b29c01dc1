// Package bench is the measurement harness behind the experiment suite:
// deterministic workload generation (uniform and Zipfian key streams, exact
// op mixes), one timing primitive, a scenario engine that owns repetition,
// and two renderers — aligned text tables in the shape the survey figures
// use, and a machine-readable JSON Report (BENCH.json at the repo root is
// the checked-in one; cmd/benchdiff compares two).
//
// # Protocol
//
// Every cell is timed by Run, which also times one operation in every 64
// into a log-bucketed Histogram, so throughput and percentiles come from
// the same run (Meta.TimerNs is the calibrated clock pair; percentiles are
// raw). Scenario.Run repeats every cell — one discarded warm-up plus five
// trials, each on a freshly built structure — and records the median trial
// with the [lo, hi] of its value and p99; a -quick run measures once and
// carries no spread. DiffReports judges against those spreads.
//
// # Experiment index
//
// Experiments lists the suite (cdsbench -list prints it): F1–F12 are the
// throughput-vs-threads figures, T1–T3 the tables, S1–S18 the scenario
// families, and Ablations adds the A1–A5 knob sweeps. Every experiment is a
// list of Scenario values — a workload, the algorithms measured under it,
// and the sweep — so the record keys of a run are known before it starts
// (Scenario.Plan) and text tables, JSON records and the root testing.B
// entry points all come from the same cells. The cells of the catalogued
// families (F2–F8, F12, T2, S1–S8, S13, S14) are derived from package
// catalog's rows and workload recipes; only the experiments whose driver is
// genuinely bespoke (locks, barriers, STM, the raw reclamation schemes,
// dual, pool, cache, the S18 conservation gauges, F9's work-stealing
// system) are written out here, and those take their constructors from the
// catalogue too.
//
// # JSON schema
//
// A serialized Report (cdsbench -format json) is one JSON object:
//
//	{
//	  "schema": "cds-bench/v2",
//	  "meta": {
//	    "go_version":   "go1.24.0",     // runtime.Version()
//	    "goos":         "linux",
//	    "goarch":       "amd64",
//	    "num_cpu":      8,              // these two and "quick" decide
//	    "gomaxprocs":   8,              // whether two reports are comparable
//	    "git_revision": "abc1234",      // build/VCS info; "unknown" if absent
//	    "quick":        false,          // -quick smoke sizing, single trial
//	    "unix_time":    1750000000,     // seconds; 0 in golden-file tests
//	    "timer_ns":     41.5            // one time.Now/time.Since pair
//	  },
//	  "records": [ Record... ]
//	}
//
// and each Record is one measured cell, the median of its trials:
//
//	{
//	  "family":     "queue",           // structure family ("queue", "cmap", ...)
//	  "algo":       "MS",              // algorithm / implementation label
//	  "scenario":   "enq-heavy-70/30", // workload description
//	  "threads":    4,                 // worker count (or the sweep's X)
//	  "ops":        400000,            // operations completed; these three
//	  "elapsed_ns": 32000000,          // are omitted on "percent" records,
//	  "ns_per_op":  80,                // which keep only the value
//	  "value":      12.5,              // headline metric in "unit"
//	  "unit":       "mops",            // "mops" unless noted (e.g. "percent")
//	  "p50_ns":     71,                // percentiles over the sampled
//	  "p90_ns":     102,               // operations; absent on cells that
//	  "p99_ns":     913,               // time nothing per op (F9, percent
//	  "p999_ns":    4096,              // rows)
//	  "samples":    6252,              // operations timed: 1 in 64
//	  "trials":     5,                 // measured trials behind the record
//	  "lo":         12.1,              // min and max of the trials' values;
//	  "hi":         12.75,             // absent when trials == 1
//	  "p99_lo_ns":  880,               // min and max of the trials' p99s
//	  "p99_hi_ns":  1021,
//	  "gauges": {                      // end-of-run structure gauges of the
//	    "pending_garbage": 128,        // median trial; present only on cells
//	    "reclaimed":       399872      // that report them
//	  }
//	}
//
// Gauges are whatever the cell's structure counts (README, "Reading the
// benchmarks", goes through them family by family); ValidateReport states
// the relations that hold among them and cdsbench runs it on every JSON
// report. Blocking cells (S15) bound every operation with a cancellation
// deadline, so their latency percentiles include parked time — wait
// behaviour is the measurement, not a distortion of it — and end at a wall
// budget as well as an op budget, so "ops" is what ran.
//
// Consumers must ignore unknown fields; field removals or meaning changes
// bump the schema string.
package bench
