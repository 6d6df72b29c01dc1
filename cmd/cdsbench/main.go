// Command cdsbench runs the experiments indexed by bench.Experiments — the
// figures and tables (F1–F12, T1–T3), the scenario matrix (S1–S18) and, on
// request, the ablations (A1–A5) — and prints aligned text tables or
// serializes a machine-readable JSON report.
//
// Usage:
//
//	cdsbench                        # the full suite, text tables
//	cdsbench -experiment F4         # one experiment
//	cdsbench -quick                 # smoke-sized workloads, one trial
//	cdsbench -threads 1,2,4,8       # custom sweep
//	cdsbench -list                  # list experiment IDs
//	cdsbench -format json -o f.json # serialize a bench.Report (schema in
//	                                # the package bench docs)
//
// Without -quick every cell is built and measured six times (a discarded
// warm-up and five trials) and reported as its median with the spread;
// `cdsbench -format json -o BENCH.json` is how the checked-in record at the
// repo root is recaptured. Every JSON report is checked with
// bench.ValidateReport after it is written; a gauge invariant that does not
// hold makes the run exit non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"github.com/cds-suite/cds/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cdsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cdsbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "", "experiment ID to run (e.g. F1, A2, S3); empty runs the main suite")
		ablations  = fs.Bool("ablations", false, "also run the ablation sweeps (A1..A5)")
		quick      = fs.Bool("quick", false, "smoke-sized workloads")
		threads    = fs.String("threads", "", "comma-separated thread sweep (default: 1,2,4,...,GOMAXPROCS)")
		ops        = fs.Int("ops", 0, "operation budget of a cell, which most cells split among their workers (0 = per-experiment default)")
		list       = fs.Bool("list", false, "list experiments and exit")
		format     = fs.String("format", "text", "output format: text (aligned tables) or json (bench.Report)")
		out        = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range append(bench.Experiments(), bench.Ablations()...) {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg := bench.Config{Quick: *quick, Ops: *ops}
	if *threads != "" {
		sweep, err := parseThreads(*threads)
		if err != nil {
			return err
		}
		cfg.Threads = sweep
	}

	var selected []bench.Experiment
	if *experiment == "" {
		selected = bench.Experiments()
		if *ablations {
			selected = append(selected, bench.Ablations()...)
		}
	} else {
		e, ok := bench.Find(*experiment)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *experiment)
		}
		selected = []bench.Experiment{e}
	}

	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if *format == "json" {
		rep := bench.BuildReport(cfg, selected)
		if rep.Meta.GitRevision == "unknown" {
			if rev := gitRevision(); rev != "" {
				rep.Meta.GitRevision = rev
			}
		}
		if err := rep.WriteJSON(w); err != nil {
			return err
		}
		// The report is written first so a violation can be inspected.
		return bench.ValidateReport(rep)
	}
	for _, e := range selected {
		fmt.Fprintf(w, "# %s — %s\n", e.ID, e.Title)
		for _, fig := range e.Run(cfg) {
			if err := fig.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// gitRevision asks the working tree's git for HEAD. It is only a fallback
// for when the binary carries no embedded VCS stamping (the `go run`
// case): the build info, when present, names the commit the binary was
// actually built from, whereas the CWD's HEAD may be a different commit
// or a different repository entirely. Returns "" when git or the
// repository is unavailable.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sweep := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid thread count %q", p)
		}
		sweep = append(sweep, n)
	}
	return sweep, nil
}
