package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// planKeys returns the sorted record keys of the main suite under cfg, as
// the suite plans them without measuring anything.
func planKeys(cfg Config) []string {
	var keys []string
	for _, e := range Experiments() {
		for _, s := range e.Scenarios() {
			for _, r := range s.Plan(cfg) {
				keys = append(keys, keyLine(r))
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func keyLine(r Record) string {
	return fmt.Sprintf("%s\t%s\t%s\t%d\t%s", r.Family, r.Scenario, r.Algo, r.Threads, r.Unit)
}

// TestQuickRunKeySet pins the record keys of `cdsbench -quick -threads 1
// -format json` — (family, scenario, algo, threads, unit), captured from a
// real run on a 2-CPU box before the harnesses were derived from the
// catalogue — against the plan the suite computes without measuring
// anything. A row or workload added to package catalog changes this set;
// regenerate with -update and review the diff.
func TestQuickRunKeySet(t *testing.T) {
	// T2's title and F9's stealer sweep name the processor count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	got := planKeys(Config{Quick: true, Threads: []int{1}})
	path := filepath.Join("testdata", "quick_keys.tsv")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, k := range got {
		if seen[k] {
			t.Errorf("duplicate key: %s", k)
		}
		seen[k] = true
	}
	for _, k := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if !seen[k] {
			t.Errorf("missing key: %s", k)
		}
		delete(seen, k)
	}
	for k := range seen {
		t.Errorf("unexpected key: %s", k)
	}
}

// shortCells are the mops cells of BENCH.json allowed a median trial under
// minCellElapsed, each with the reason more operations are not the cure.
var shortCells = func() map[string]string {
	// A one-party barrier has nobody to wait for: an episode is 7–30 ns, and
	// the episode count is shared with the two-party cells (270 ns and up per
	// episode, lock-step), which sizing these six to 20 ms would run for ~1 s
	// a trial. They stay in the key set as the degenerate end of the sweep.
	const reason = "one-party barrier: nothing to wait for"
	m := map[string]string{}
	for _, scenario := range []string{"F10: barrier episodes per second (Mops column = M episodes/s × threads)", "back-to-back-episodes"} {
		for _, algo := range []string{"Sense", "Tree", "Dissemination"} {
			m[keyLine(Record{Family: "barrier", Scenario: scenario, Algo: algo, Threads: 1, Unit: UnitMops})] = reason
		}
	}
	return m
}()

const minCellElapsed = 20 * time.Millisecond

// TestCheckedInRecord: BENCH.json at the repo root is the one checked-in
// record, and it is what README says it is — a valid full (not quick) run
// on cores that really run in parallel, covering exactly the cells the
// suite plans today at the default sweep of its own processor count (so a
// new catalogue row makes it visibly stale), every cell repeated with its
// median inside its spread, and no throughput cell so short that start-up
// is the number.
func TestCheckedInRecord(t *testing.T) {
	rep, err := LoadReport(filepath.Join("..", "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(rep); err != nil {
		t.Error(err)
	}
	if m := rep.Meta; m.Quick || m.NumCPU != m.GOMAXPROCS || m.NumCPU < 2 || m.TimerNs <= 0 {
		t.Fatalf("meta %+v: want a full run with num_cpu == gomaxprocs >= 2 and a calibrated timer", m)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(rep.Meta.GOMAXPROCS))
	planned := map[string]bool{}
	for _, k := range planKeys(Config{}) {
		planned[k] = true
	}
	for _, r := range rep.Records {
		k := keyLine(r)
		if !planned[k] {
			t.Errorf("record for a cell the suite no longer plans (or holds twice): %s", k)
		}
		delete(planned, k)
		if r.Trials < measuredTrials { // lo <= value <= hi is ValidateReport's
			t.Errorf("%s: %d trials, want >= %d", k, r.Trials, measuredTrials)
		}
		if r.Unit != UnitMops {
			continue
		}
		_, allowed := shortCells[k]
		if short := r.ElapsedNs < minCellElapsed.Nanoseconds(); short && !allowed {
			t.Errorf("%s: median trial ran %v, under %v and not in shortCells", k, time.Duration(r.ElapsedNs), minCellElapsed)
		} else if !short && allowed {
			t.Errorf("%s: in shortCells but ran %v; drop the exception", k, time.Duration(r.ElapsedNs))
		}
	}
	for k := range planned {
		t.Errorf("planned cell missing from BENCH.json (recapture it): %s", k)
	}
}
