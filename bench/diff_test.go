package bench

import (
	"strings"
	"testing"
)

func diffReport(records ...Record) Report {
	return Report{Schema: ReportSchema, Records: records}
}

func regressions(d Diff) []CellDiff {
	var out []CellDiff
	for _, c := range d.Cells {
		if c.Regressed() {
			out = append(out, c)
		}
	}
	if len(out) != d.Regressed {
		panic("Diff.Regressed disagrees with its cells")
	}
	return out
}

// diffRec is a five-trial record whose value spread is value±spread and
// whose p99 spread is p99±p99/10.
func diffRec(algo string, value, spread float64, p99 int64) Record {
	r := Record{
		Family:   "contend",
		Scenario: "queue-pingpong",
		Algo:     algo,
		Threads:  4,
		Value:    value,
		Unit:     UnitMops,
		Trials:   5,
		Lo:       value - spread,
		Hi:       value + spread,
	}
	if p99 > 0 {
		r.P99Ns, r.P99LoNs, r.P99HiNs = p99, p99-p99/10, p99+p99/10
		r.Samples = 1000
	}
	return r
}

// TestDiffReportsJudgesAgainstTheSpread: a cell regressed only when the two
// trial spreads are disjoint in the losing direction; overlapping spreads
// are not a finding however large the delta between the medians.
func TestDiffReportsJudgesAgainstTheSpread(t *testing.T) {
	oldR := diffReport(
		diffRec("disjoint-down", 10, 0.5, 1000),
		diffRec("overlapping", 10, 2, 1000),
		diffRec("disjoint-up", 10, 0.5, 1000),
		diffRec("p99-up", 10, 0.5, 1000),
	)
	newR := diffReport(
		diffRec("disjoint-down", 8, 0.5, 1000), // [7.5, 8.5] below [9.5, 10.5]
		diffRec("overlapping", 7, 2, 1100),     // [5, 9] meets [8, 12]; p99 [990, 1210] meets [900, 1100]
		diffRec("disjoint-up", 12, 0.5, 1000),
		diffRec("p99-up", 10, 0.5, 1500), // [1350, 1650] above [900, 1100]
	)
	d, err := DiffReports(oldR, newR)
	if err != nil {
		t.Fatal(err)
	}
	if d.Unresolved != 0 || d.NotComparable != "" {
		t.Fatalf("spread-carrying comparable reports left %d cells unresolved (%q)", d.Unresolved, d.NotComparable)
	}
	regs := regressions(d)
	if len(regs) != 2 {
		t.Fatalf("Regressions() = %d cells, want 2: %+v", len(regs), regs)
	}
	if c := regs[0]; c.Key.Algo != "disjoint-down" || !c.ValueRegression || c.P99Regression || c.ValueDelta > -0.19 || c.ValueDelta < -0.21 {
		t.Errorf("wrong value regression: %+v", c)
	}
	if c := regs[1]; c.Key.Algo != "p99-up" || !c.P99Regression || c.ValueRegression {
		t.Errorf("wrong p99 regression: %+v", c)
	}
	if c := d.Cells[1]; c.Regressed() || c.Improved {
		t.Errorf("overlapping spreads judged: %+v", c)
	}
	if c := d.Cells[2]; !c.Improved || c.Regressed() {
		t.Errorf("disjoint-up not marked improved: %+v", c)
	}

	var sb strings.Builder
	if err := d.Render(&sb, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"REGRESSION(value)", "REGRESSION(p99)", "improved", "(1 cells with overlapping"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered diff lacks %q:\n%s", want, out)
		}
	}
}

// TestDiffReportsMissingSpreadIsUnresolved: a single-trial record on either
// side cannot be judged, whatever the delta.
func TestDiffReportsMissingSpreadIsUnresolved(t *testing.T) {
	single := diffRec("FC", 5, 0, 3000)
	single.Trials, single.Lo, single.Hi, single.P99LoNs, single.P99HiNs = 1, 0, 0, 0, 0
	for _, pair := range [][2]Report{
		{diffReport(diffRec("FC", 10, 0.5, 1000)), diffReport(single)},
		{diffReport(single), diffReport(diffRec("FC", 1, 0.1, 9000))},
	} {
		d, err := DiffReports(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if d.Unresolved != 1 || len(regressions(d)) != 0 || d.Cells[0].Improved {
			t.Errorf("cell without a spread was judged: %+v", d.Cells[0])
		}
	}
}

// TestDiffReportsIncompatibleMeta: different num_cpu, gomaxprocs or quick
// means the deltas are computed and shown but nothing is flagged.
func TestDiffReportsIncompatibleMeta(t *testing.T) {
	oldR, newR := diffReport(diffRec("FC", 10, 0.5, 1000)), diffReport(diffRec("FC", 5, 0.5, 3000))
	for name, mutate := range map[string]func(*Meta){
		"num_cpu=4":    func(m *Meta) { m.NumCPU = 4 },
		"gomaxprocs=4": func(m *Meta) { m.GOMAXPROCS = 4 },
		"quick=true":   func(m *Meta) { m.Quick = true },
	} {
		newR.Meta = Meta{NumCPU: 2, GOMAXPROCS: 2}
		oldR.Meta = newR.Meta
		mutate(&newR.Meta)
		d, err := DiffReports(oldR, newR)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(d.NotComparable, name) {
			t.Errorf("%s: NotComparable = %q", name, d.NotComparable)
		}
		if c := d.Cells[0]; len(regressions(d)) != 0 || c.Resolved || c.ValueDelta != -0.5 {
			t.Errorf("%s: cell judged or delta missing: %+v", name, c)
		}
		var sb strings.Builder
		if err := d.Render(&sb, false); err != nil {
			t.Fatal(err)
		}
		if out := sb.String(); !strings.Contains(out, "-50.0%") || strings.Contains(out, "REGRESSION") {
			t.Errorf("%s: render must print the delta and flag nothing:\n%s", name, out)
		}
	}
}

func TestDiffReportsRejectsDuplicateKeys(t *testing.T) {
	once, twice := diffReport(diffRec("FC", 10, 1, 0)), diffReport(diffRec("FC", 10, 1, 0), diffRec("FC", 11, 1, 0))
	if _, err := DiffReports(twice, once); err == nil || !strings.Contains(err.Error(), "old report has two records") {
		t.Errorf("duplicate key in the old report: err = %v", err)
	}
	if _, err := DiffReports(once, twice); err == nil || !strings.Contains(err.Error(), "new report has two records") {
		t.Errorf("duplicate key in the new report: err = %v", err)
	}
}

func TestDiffReportsOnlyOldOnlyNew(t *testing.T) {
	oldR := diffReport(diffRec("FC", 10, 1, 0), diffRec("Dropped", 5, 1, 0))
	newR := diffReport(diffRec("FC", 10, 1, 0), diffRec("Added", 7, 1, 0))
	d, err := DiffReports(oldR, newR)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cells) != 1 {
		t.Fatalf("joined cells = %d, want 1", len(d.Cells))
	}
	if len(d.OnlyOld) != 1 || d.OnlyOld[0].Algo != "Dropped" {
		t.Fatalf("OnlyOld = %+v, want the Dropped cell", d.OnlyOld)
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0].Algo != "Added" {
		t.Fatalf("OnlyNew = %+v, want the Added cell", d.OnlyNew)
	}
}

func TestDiffReportsUnitMismatchSkipsValueComparison(t *testing.T) {
	or := diffRec("FC", 10, 0.5, 0)
	nr := diffRec("FC", 2, 0.5, 0)
	nr.Unit = UnitPercent // unit changed between reports: values not comparable
	d, err := DiffReports(diffReport(or), diffReport(nr))
	if err != nil {
		t.Fatal(err)
	}
	if c := d.Cells[0]; c.Unit != "" || c.ValueRegression {
		t.Fatalf("unit-mismatched cell compared anyway: %+v", c)
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	_, err := ReadReport(strings.NewReader(`{"schema":"cds-bench/v1","records":[]}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema report accepted: err = %v", err)
	}
}
