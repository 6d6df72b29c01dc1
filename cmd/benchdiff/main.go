// Command benchdiff compares two cds-bench/v2 reports cell by cell.
//
// It joins records by (experiment family, scenario, algo, threads) and
// prints per-cell throughput and p99 deltas. A cell regressed when both
// reports carry trial spreads for it and the intervals are disjoint — the
// new [lo, hi] wholly below the old one, or the new p99 spread wholly above
// — and any such cell makes the exit status 1, so CI can gate on it:
//
//	go run ./cmd/benchdiff BENCH.json current.json
//
// Cells without spreads (quick, single-trial reports) are "unresolved", and
// reports whose meta differs in num_cpu, gomaxprocs or quick are "not
// comparable": the deltas are printed, nothing is flagged, the exit status
// is 0. A report holding two records for one cell is rejected (status 2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/cds-suite/cds/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print cells with overlapping or missing spreads too")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchdiff [-v] old.json new.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldR, err := bench.LoadReport(fs.Arg(0))
	newR, errNew := bench.LoadReport(fs.Arg(1))
	var d bench.Diff
	if err = errors.Join(err, errNew); err == nil {
		d, err = bench.DiffReports(oldR, newR)
	}
	if err == nil {
		err = d.Render(stdout, *verbose)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if d.NotComparable != "" {
		fmt.Fprintf(stdout, "not comparable: %s (%d cells joined, none judged)\n", d.NotComparable, len(d.Cells))
		return 0
	}
	if d.Regressed > 0 {
		fmt.Fprintf(stdout, "%d of %d cell(s) regressed: trial spreads disjoint\n", d.Regressed, len(d.Cells))
		return 1
	}
	fmt.Fprintf(stdout, "no regressions (%d cells compared, %d unresolved for want of a trial spread)\n", len(d.Cells), d.Unresolved)
	return 0
}
