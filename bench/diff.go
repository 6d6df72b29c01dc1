package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Report diffing: the tooling that turns two reports into a reviewable
// statement about what got faster, slower, or disappeared. A cell is judged
// against the spread its own trials recorded, not against a flat threshold;
// cmd/benchdiff is the CLI and exits nonzero on a regression.

// CellKey identifies one measured cell across reports: the
// (experiment/family, scenario, algorithm, threads) coordinate every
// Record carries.
type CellKey struct {
	Family   string
	Scenario string
	Algo     string
	Threads  int
}

func (k CellKey) String() string {
	return fmt.Sprintf("%s | %s | %s | t=%d", k.Family, k.Scenario, k.Algo, k.Threads)
}

// CellDiff compares one cell present in both reports.
type CellDiff struct {
	Key CellKey
	// OldValue/NewValue are the records' headline values (throughput for
	// mops cells); ValueDelta is the fractional change (new-old)/old,
	// positive when the new report is higher.
	OldValue, NewValue float64
	ValueDelta         float64
	// Unit is the cells' shared unit ("" when the two records disagree,
	// in which case no value comparison was made).
	Unit string
	// P99 comparison, only when both records sampled latency.
	HasP99         bool
	OldP99, NewP99 int64
	P99Delta       float64
	// Resolved is set when the reports are comparable and both records carry
	// a trial spread; the verdicts below are only ever set on resolved cells.
	Resolved bool
	// ValueRegression marks a new value spread lying wholly below the old
	// one, P99Regression a new p99 spread wholly above it, Improved the
	// reverse on either axis. Higher is better for both supported units
	// (mops, percent), lower for p99.
	ValueRegression, P99Regression, Improved bool
}

// Regressed reports whether the cell regressed on either axis.
func (c CellDiff) Regressed() bool { return c.ValueRegression || c.P99Regression }

// Diff is the join of two reports.
type Diff struct {
	// NotComparable, when non-empty, names the meta fields (num_cpu,
	// gomaxprocs, quick) the reports disagree on; no cell is judged then.
	NotComparable string
	// Cells holds every key present in both reports, in the new report's
	// record order; Regressed counts those whose trial spreads are disjoint
	// in the losing direction, Unresolved those that could not be judged.
	Cells                 []CellDiff
	Regressed, Unresolved int
	// OnlyOld and OnlyNew list cells that exist in one report only
	// (dropped and added coverage, respectively), sorted by key.
	OnlyOld, OnlyNew []CellKey
}

// DiffReports joins two reports by cell key. A cell regressed only when
// both records carry trial spreads and the intervals are disjoint; without
// spreads it is unresolved, and between reports whose meta differs in
// num_cpu, gomaxprocs or quick nothing is judged at all. A key that occurs
// twice inside one report is an error.
func DiffReports(oldR, newR Report) (Diff, error) {
	var d Diff
	if o, n := oldR.Meta, newR.Meta; o.NumCPU != n.NumCPU || o.GOMAXPROCS != n.GOMAXPROCS || o.Quick != n.Quick {
		d.NotComparable = fmt.Sprintf("old has num_cpu=%d gomaxprocs=%d quick=%v, new has num_cpu=%d gomaxprocs=%d quick=%v",
			o.NumCPU, o.GOMAXPROCS, o.Quick, n.NumCPU, n.GOMAXPROCS, n.Quick)
	}
	oldByKey := make(map[CellKey]Record, len(oldR.Records))
	for _, r := range oldR.Records {
		k := recordKey(r)
		if _, dup := oldByKey[k]; dup {
			return d, fmt.Errorf("bench: old report has two records for cell %v", k)
		}
		oldByKey[k] = r
	}
	newKeys := make(map[CellKey]bool, len(newR.Records))
	for _, nr := range newR.Records {
		k := recordKey(nr)
		if newKeys[k] {
			return d, fmt.Errorf("bench: new report has two records for cell %v", k)
		}
		newKeys[k] = true
		or, ok := oldByKey[k]
		if !ok {
			d.OnlyNew = append(d.OnlyNew, k)
			continue
		}
		c := diffCell(k, or, nr, d.NotComparable == "")
		d.Cells = append(d.Cells, c)
		if c.Regressed() {
			d.Regressed++
		} else if !c.Resolved {
			d.Unresolved++
		}
	}
	for _, or := range oldR.Records {
		if k := recordKey(or); !newKeys[k] {
			d.OnlyOld = append(d.OnlyOld, k)
		}
	}
	sortKeys(d.OnlyOld)
	sortKeys(d.OnlyNew)
	return d, nil
}

func recordKey(r Record) CellKey {
	return CellKey{Family: r.Family, Scenario: r.Scenario, Algo: r.Algo, Threads: r.Threads}
}

func diffCell(k CellKey, or, nr Record, judge bool) CellDiff {
	c := CellDiff{Key: k, OldValue: or.Value, NewValue: nr.Value,
		Resolved: judge && or.Trials > 1 && nr.Trials > 1}
	if or.Unit == nr.Unit {
		c.Unit = or.Unit
		if or.Value > 0 {
			c.ValueDelta = (nr.Value - or.Value) / or.Value
		}
		if c.Resolved {
			c.ValueRegression, c.Improved = nr.Hi < or.Lo, nr.Lo > or.Hi
		}
	}
	if or.Samples > 0 && nr.Samples > 0 && or.P99Ns > 0 {
		c.HasP99 = true
		c.OldP99, c.NewP99 = or.P99Ns, nr.P99Ns
		c.P99Delta = float64(nr.P99Ns-or.P99Ns) / float64(or.P99Ns)
		if c.Resolved {
			// Percentiles are bucket midpoints, ±half a bucket: spreads in
			// adjacent buckets touch.
			const half = 1.0 / (2 << histSubBits)
			above := func(a, b int64) bool { return float64(a)*(1-half) > float64(b)*(1+half) }
			c.P99Regression = above(nr.P99LoNs, or.P99HiNs)
			c.Improved = c.Improved || above(or.P99LoNs, nr.P99HiNs)
		}
	}
	return c
}

func sortKeys(keys []CellKey) {
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
}

// LoadReport reads a JSON report from disk, verifying the
// schema so two incompatible layouts are never silently joined.
func LoadReport(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, fmt.Errorf("bench: load report: %w", err)
	}
	defer f.Close()
	return ReadReport(f)
}

// ReadReport decodes a report and verifies its schema.
func ReadReport(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("bench: decode report: %w", err)
	}
	if rep.Schema != ReportSchema {
		return Report{}, fmt.Errorf("bench: report schema %q, want %q", rep.Schema, ReportSchema)
	}
	return rep, nil
}

// Render writes the diff as an aligned table: one row per joined cell,
// with fractional deltas as percentages and the verdict in the last column.
// Cells with overlapping or missing spreads are summarised unless verbose
// is set; between reports that are not comparable every delta is printed
// and none is flagged.
func (d Diff) Render(w io.Writer, verbose bool) error {
	var err error
	printf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	printf("%-66s %12s %12s %8s %9s %s\n", "cell (family | scenario | algo | threads)", "old", "new", "Δvalue", "Δp99", "flag")
	quiet := 0
	for _, c := range d.Cells {
		if !verbose && d.NotComparable == "" && !c.Regressed() && !c.Improved {
			quiet++
			continue
		}
		p99 := "-"
		if c.HasP99 {
			p99 = fmt.Sprintf("%+.1f%%", 100*c.P99Delta)
		}
		flag := ""
		switch {
		case c.ValueRegression && c.P99Regression:
			flag = "REGRESSION(value,p99)"
		case c.ValueRegression:
			flag = "REGRESSION(value)"
		case c.P99Regression:
			flag = "REGRESSION(p99)"
		case c.Improved:
			flag = "improved"
		case !c.Resolved && d.NotComparable == "":
			flag = "unresolved"
		}
		printf("%-66s %12.4f %12.4f %+7.1f%% %9s %s\n", c.Key.String(), c.OldValue, c.NewValue, 100*c.ValueDelta, p99, flag)
	}
	if quiet > 0 {
		printf("(%d cells with overlapping or missing spreads suppressed; -v shows them)\n", quiet)
	}
	for _, k := range d.OnlyOld {
		printf("only in old report: %s\n", k)
	}
	for _, k := range d.OnlyNew {
		printf("only in new report: %s\n", k)
	}
	return err
}
