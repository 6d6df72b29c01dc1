package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenReport is a fully deterministic report: fixed meta, one full
// five-trial record with its spread, a single-trial percent record and one
// carrying gauges — every serialization shape.
func goldenReport() Report {
	return Report{
		Schema: ReportSchema,
		Meta: Meta{
			GoVersion:   "go1.24.0",
			GOOS:        "linux",
			GOARCH:      "amd64",
			NumCPU:      8,
			GOMAXPROCS:  8,
			GitRevision: "abc1234",
			Quick:       false,
			UnixTime:    0,
			TimerNs:     41.5,
		},
		Records: []Record{
			{
				Family:    "queue",
				Algo:      "MS",
				Scenario:  "enq-heavy-70/30",
				Threads:   4,
				Ops:       400000,
				ElapsedNs: 32000000,
				Value:     12.5,
				Unit:      UnitMops,
				NsPerOp:   80,
				P50Ns:     71,
				P90Ns:     102,
				P99Ns:     913,
				P999Ns:    4096,
				Samples:   6252,
				Trials:    5,
				Lo:        12.1,
				Hi:        12.75,
				P99LoNs:   880,
				P99HiNs:   1021,
			},
			{
				Family:   "stack",
				Algo:     "hit-rate%",
				Scenario: "T3: elimination-backoff stack: hits per 100 elimination visits",
				Threads:  8,
				Value:    37.5,
				Unit:     UnitPercent,
			},
			{
				Family:   "reclaim",
				Algo:     "Harris/EBR",
				Scenario: "F12: list delete-heavy 40/40/20",
				Threads:  4,
				Value:    3.25,
				Unit:     UnitMops,
				Gauges:   map[string]float64{"pending_garbage": 128, "reclaimed": 39872},
			},
		},
	}
}

// TestReportGoldenJSON locks the serialized layout: any schema drift must
// show up as a reviewed golden-file diff (and a ReportSchema bump when it
// changes meaning).
func TestReportGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test ./bench -run Golden -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("serialized report drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestReportRoundTrip: what WriteJSON emits, encoding/json reads back
// unchanged — the property BENCH.json consumers rely on.
func TestReportRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := goldenReport()
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != in.Schema || out.Meta != in.Meta || len(out.Records) != len(in.Records) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	for i := range in.Records {
		if !reflect.DeepEqual(out.Records[i], in.Records[i]) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, out.Records[i], in.Records[i])
		}
	}
}

func TestResultRecordConversion(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	res := Result{Workers: 4, Ops: 1000, Elapsed: 2 * time.Millisecond, Latency: h}
	rec := res.Record("queue", "MS", "test-mix")
	if rec.Family != "queue" || rec.Algo != "MS" || rec.Scenario != "test-mix" || rec.Threads != 4 {
		t.Fatalf("labels wrong: %+v", rec)
	}
	if rec.Value != res.Throughput() || rec.NsPerOp != res.NsPerOp() || rec.ElapsedNs != res.Elapsed.Nanoseconds() {
		t.Fatalf("metrics wrong: %+v", rec)
	}
	if rec.P50Ns == 0 || rec.P99Ns == 0 || rec.Samples != 1000 {
		t.Fatalf("latency fields missing: %+v", rec)
	}
	// Without sampling, latency fields stay zero and omitted from JSON.
	plain := Result{Workers: 1, Ops: 10, Elapsed: time.Millisecond}.Record("stack", "Treiber", "x")
	if plain.P50Ns != 0 || plain.Samples != 0 {
		t.Fatalf("unsampled record has latency fields: %+v", plain)
	}
	b, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("p50_ns")) {
		t.Fatalf("unsampled record serialized latency fields: %s", b)
	}
}

// TestBuildReport exercises the assembly path with synthetic experiments:
// a latency-sampled scenario, and a percent row under a custom sweep.
func TestBuildReport(t *testing.T) {
	h := NewHistogram()
	h.Record(10)
	exps := []Experiment{
		{ID: "X1", Title: "sampled", Scenarios: func() []Scenario {
			return []Scenario{{Family: "queue", Name: "m", Algos: []ScenarioAlgo{{Label: "MS", Run: func(_ Config, th int) Result {
				return Result{Workers: th, Ops: 1, Elapsed: time.Microsecond, Latency: h}
			}}}}}
		}},
		{ID: "X2", Title: "percent", Scenarios: func() []Scenario {
			return []Scenario{{Family: "stack", Name: "X2: t", Xs: func(Config) []int { return []int{7} },
				Algos: []ScenarioAlgo{{Label: "A", Percent: true, Run: func(Config, int) Result { return Result{Percent: 37.5} }}}}}
		}},
	}
	rep := BuildReport(Config{Quick: true, Threads: []int{1}}, exps)
	if rep.Schema != ReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Meta.GoVersion == "" || rep.Meta.GOMAXPROCS == 0 || !rep.Meta.Quick {
		t.Fatalf("meta not captured: %+v", rep.Meta)
	}
	if len(rep.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(rep.Records))
	}
	if r := rep.Records[0]; r.P50Ns != 10 || r.Threads != 1 || r.Unit != UnitMops {
		t.Fatalf("sampled record wrong: %+v", r)
	}
	if r := rep.Records[1]; r.Family != "stack" || r.Threads != 7 || r.Value != 37.5 || r.Unit != UnitPercent {
		t.Fatalf("percent record wrong: %+v", r)
	}
	figs := exps[1].Run(Config{})
	if len(figs) != 1 || figs[0].Title != "t" || figs[0].Series[0].Points[0] != (Point{X: 7, Mops: 37.5}) {
		t.Fatalf("figures wrong: %+v", figs)
	}
}
