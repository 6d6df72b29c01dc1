package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestQuickRunKeySet pins the record keys of `cdsbench -quick -threads 1
// -format json` — (family, scenario, algo, threads, unit), captured from a
// real run on a 2-CPU box before the harnesses were derived from the
// catalogue — against the plan the suite computes without measuring
// anything. A row or workload added to package catalog changes this set;
// regenerate with -update and review the diff.
func TestQuickRunKeySet(t *testing.T) {
	// T2's title and F9's stealer sweep name the processor count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var got []string
	for _, e := range Experiments() {
		for _, s := range e.Scenarios() {
			for _, r := range s.Plan(Config{Quick: true, Threads: []int{1}}) {
				got = append(got, fmt.Sprintf("%s\t%s\t%s\t%d\t%s", r.Family, r.Scenario, r.Algo, r.Threads, r.Unit))
			}
		}
	}
	sort.Strings(got)
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
