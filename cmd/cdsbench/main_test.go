package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cds-suite/cds/bench"
)

// TestRunWritesAValidReport drives the JSON path end to end: the file that
// `cdsbench -experiment T1 -quick -format json -o f` leaves behind reads
// back through ReadReport, passes ValidateReport, and holds T1's ten
// single-trial cells with sampled latency and the calibrated timer.
func TestRunWritesAValidReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.json")
	if err := run([]string{"-experiment", "T1", "-quick", "-format", "json", "-o", path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := bench.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.ValidateReport(rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Meta.Quick || rep.Meta.TimerNs <= 0 || rep.Meta.GitRevision == "" {
		t.Errorf("meta not captured: %+v", rep.Meta)
	}
	if len(rep.Records) != 10 {
		t.Fatalf("T1 wrote %d records, want 10", len(rep.Records))
	}
	for _, r := range rep.Records {
		if r.Threads != 1 || r.Value <= 0 || r.Unit != bench.UnitMops || r.Samples == 0 || r.P99Ns < r.P50Ns || r.Trials != 1 {
			t.Errorf("malformed record: %+v", r)
		}
	}
}

// TestRunUsageErrors: each names its cause, and none leaves an output file
// behind.
func TestRunUsageErrors(t *testing.T) {
	for want, args := range map[string][]string{
		`unknown experiment "F99"`: {"-experiment", "F99"},
		`unknown format "xml"`:     {"-experiment", "T1", "-quick", "-format", "xml"},
		`invalid thread count "0"`: {"-experiment", "T1", "-quick", "-threads", "0,x"},
		`invalid thread count "x"`: {"-experiment", "T1", "-quick", "-threads", "1,x"},
	} {
		path := filepath.Join(t.TempDir(), "out.json")
		err := run(append(args, "-o", path))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%v) = %v, want an error naming %s", args, err, want)
		}
		if _, statErr := os.Stat(path); statErr == nil {
			t.Errorf("run(%v) left %s behind", args, path)
		}
	}
}
