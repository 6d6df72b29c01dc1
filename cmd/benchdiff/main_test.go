package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cds-suite/cds/bench"
)

func writeReport(t *testing.T, dir, name string, rep bench.Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// report is a one-cell full (five-trial) report on a 2-CPU box whose value
// spread is value±0.5.
func report(value float64) bench.Report {
	return bench.Report{
		Schema: bench.ReportSchema,
		Meta:   bench.Meta{NumCPU: 2, GOMAXPROCS: 2},
		Records: []bench.Record{{
			Family:   "contend",
			Scenario: "queue-pingpong",
			Algo:     "FC",
			Threads:  4,
			Value:    value,
			Unit:     bench.UnitMops,
			Trials:   5,
			Lo:       value - 0.5,
			Hi:       value + 0.5,
		}},
	}
}

// diff runs benchdiff on two reports and returns its exit code and stdout.
func diff(t *testing.T, oldR, newR bench.Report, flags ...string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	args := append(flags, writeReport(t, dir, "old.json", oldR), writeReport(t, dir, "new.json", newR))
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String() + errb.String()
}

func TestRunFlagsDisjointSpreads(t *testing.T) {
	code, out := diff(t, report(10), report(8)) // [7.5, 8.5] wholly below [9.5, 10.5]
	if code != 1 || !strings.Contains(out, "REGRESSION(value)") {
		t.Fatalf("exit code = %d, want 1 with the cell flagged:\n%s", code, out)
	}
}

func TestRunCleanWhenSpreadsOverlap(t *testing.T) {
	code, out := diff(t, report(10), report(9.5))
	if code != 0 || !strings.Contains(out, "no regressions (1 cells compared, 0 unresolved") {
		t.Fatalf("exit code = %d, want 0 and a clean verdict:\n%s", code, out)
	}
	if code, out := diff(t, report(10), report(10)); code != 0 {
		t.Fatalf("self-diff exit code = %d, want 0:\n%s", code, out)
	}
}

func TestRunUnresolvedWithoutSpread(t *testing.T) {
	quick := report(5)
	quick.Records[0].Trials, quick.Records[0].Lo, quick.Records[0].Hi = 1, 0, 0
	code, out := diff(t, report(10), quick, "-v")
	if code != 0 || !strings.Contains(out, "unresolved") || strings.Contains(out, "REGRESSION") {
		t.Fatalf("exit code = %d, want 0 with the cell unresolved:\n%s", code, out)
	}
}

func TestRunNotComparable(t *testing.T) {
	other := report(5)
	other.Meta.Quick = true
	code, out := diff(t, report(10), other)
	if code != 0 || !strings.Contains(out, "not comparable: old has num_cpu=2 gomaxprocs=2 quick=false, new has num_cpu=2 gomaxprocs=2 quick=true") ||
		!strings.Contains(out, "-50.0%") || strings.Contains(out, "REGRESSION") {
		t.Fatalf("exit code = %d, want 0, the delta printed and nothing flagged:\n%s", code, out)
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"only-one.json"}, &out, &errb); code != 2 {
		t.Fatalf("one-arg exit code = %d, want 2", code)
	}
	if code := run([]string{"missing-a.json", "missing-b.json"}, &out, &errb); code != 2 {
		t.Fatalf("missing-file exit code = %d, want 2", code)
	}
	if code := run([]string{"-noise", "0.1", "a.json", "b.json"}, &out, &errb); code != 2 {
		t.Fatalf("-noise is gone: exit code = %d, want 2", code)
	}
	twice := report(10)
	twice.Records = append(twice.Records, twice.Records[0])
	if code, out := diff(t, twice, report(10)); code != 2 || !strings.Contains(out, "two records for cell") {
		t.Fatalf("duplicate cell: exit code = %d, want 2:\n%s", code, out)
	}
}
