// Command cdslin stress-tests the linearizability of the module's
// structures: it records many small concurrent histories from live
// structures and checks each against the sequential model, reporting any
// counterexample it finds. Its targets are the catalogue's: every
// linearizable variant under every option point it accepts (reclamation
// domain × recycling, combining backend), named family/label+options.
//
// Usage:
//
//	cdslin                               # all targets, default windows
//	cdslin -structure stack/Treiber+HP   # one target
//	cdslin -rounds 500 -clients 4        # heavier search
//	cdslin -list                         # list target names
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/cds-suite/cds/catalog"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/lincheck"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cdslin:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cdslin", flag.ContinueOnError)
	var (
		structure = fs.String("structure", "", "target to check (empty = all)")
		rounds    = fs.Int("rounds", 200, "history windows per target")
		clients   = fs.Int("clients", 3, "concurrent clients per window")
		opsPer    = fs.Int("ops", 4, "operations per client per window")
		listOnly  = fs.Bool("list", false, "list targets and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	targets := catalog.Targets()
	if *listOnly {
		for _, tg := range targets {
			fmt.Fprintln(out, tg.Name)
		}
		return nil
	}
	if *structure != "" {
		var one []catalog.Target
		for _, tg := range targets {
			if tg.Name == *structure {
				one = append(one, tg)
			}
		}
		if one == nil {
			return fmt.Errorf("unknown structure %q (try -list)", *structure)
		}
		targets = one
	}

	// Windows only mean something when the clients genuinely interleave.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	for _, tg := range targets {
		err := lincheck.Stress(tg.Model, *rounds, *clients, func() func(int, *xrand.Rand, *lincheck.Recorder) {
			return tg.Window(*clients, *opsPer)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", tg.Name, err)
		}
		fmt.Fprintf(out, "%-34s ok (%d windows × %d clients × %d ops)\n", tg.Name, *rounds, *clients, *opsPer)
	}
	return nil
}
