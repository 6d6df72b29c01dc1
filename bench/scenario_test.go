package bench

import (
	"testing"
	"time"
)

// TestMixGenExactCounts: every block of 100 draws carries exactly the
// configured proportions — the property that makes op mixes identical
// across algorithms.
func TestMixGenExactCounts(t *testing.T) {
	g := NewMixGen(42, 90, 5, 5)
	counts := map[int]int{}
	const blocks = 10
	for i := 0; i < blocks*mixBlock; i++ {
		counts[g.Next()]++
	}
	if counts[0] != 90*blocks || counts[1] != 5*blocks || counts[2] != 5*blocks {
		t.Fatalf("counts = %v, want exactly 900/50/50", counts)
	}
	// Per-block exactness, not just in aggregate.
	g = NewMixGen(7, 70, 30)
	for b := 0; b < 5; b++ {
		block := map[int]int{}
		for i := 0; i < mixBlock; i++ {
			block[g.Next()]++
		}
		if block[0] != 70 || block[1] != 30 {
			t.Fatalf("block %d counts = %v, want exactly 70/30", b, block)
		}
	}
}

// TestMixGenDeterministic: the same seed replays the same stream, and the
// stream is genuinely shuffled (not the sorted prototype block).
func TestMixGenDeterministic(t *testing.T) {
	a, b := NewMixGen(1, 50, 50), NewMixGen(1, 50, 50)
	var seqA []int
	sorted := true
	for i := 0; i < 200; i++ {
		x := a.Next()
		if x != b.Next() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
		seqA = append(seqA, x)
		if i > 0 && i < mixBlock && seqA[i] < seqA[i-1] {
			sorted = false
		}
	}
	if sorted {
		t.Fatal("first block came out in prototype order; shuffle is not running")
	}
	c := NewMixGen(2, 50, 50)
	diverged := false
	for i := 0; i < 200; i++ {
		if c.Next() != seqA[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestMixGenRejectsBadPercentages(t *testing.T) {
	for _, pcts := range [][]int{{50, 40}, {101}, {-1, 101}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMixGen(%v) did not panic", pcts)
				}
			}()
			NewMixGen(1, pcts...)
		}()
	}
}

// TestScenarioMatrixShape: every structure family must contribute at
// least two scenario mixes, each with at least two algorithms (the
// acceptance bar for the mixed-workload engine).
func TestScenarioMatrixShape(t *testing.T) {
	perFamily := map[string]int{}
	for _, s := range Scenarios() {
		perFamily[s.Family]++
		if len(s.Algos) < 2 {
			t.Errorf("scenario %s/%s has %d algos, want >= 2", s.Family, s.Name, len(s.Algos))
		}
		if s.Name == "" {
			t.Errorf("unnamed scenario in family %s", s.Family)
		}
	}
	if len(perFamily) < 8 {
		t.Errorf("only %d families in the matrix: %v", len(perFamily), perFamily)
	}
	for fam, n := range perFamily {
		if n < 2 {
			t.Errorf("family %s has %d scenarios, want >= 2", fam, n)
		}
	}
}

// TestScenarioRecordsCarryLatency runs one cheap cell end-to-end and
// checks the records have the latency fields the JSON trajectory needs.
func TestScenarioRecordsCarryLatency(t *testing.T) {
	cfg := Config{Quick: true, Threads: []int{1, 2}, Ops: 2000}
	var scen Scenario
	for _, s := range Scenarios() {
		if s.Family == "counter" {
			scen = s
			break
		}
	}
	recs := scen.Run(cfg)
	if want := len(scen.Algos) * 2; len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	for _, r := range recs {
		if r.Family != "counter" || r.Algo == "" || r.Scenario == "" {
			t.Errorf("incomplete record labels: %+v", r)
		}
		if r.Ops == 0 || r.ElapsedNs == 0 || r.Value <= 0 || r.Unit != UnitMops {
			t.Errorf("degenerate measurement: %+v", r)
		}
		perWorker := r.Ops / int64(r.Threads)
		wantSamples := int64(r.Threads) * ((perWorker + SampleEvery - 1) / SampleEvery)
		if r.P50Ns <= 0 || r.P99Ns < r.P50Ns || r.P999Ns < r.P99Ns || r.Samples != uint64(wantSamples) {
			t.Errorf("latency fields wrong: p50=%d p99=%d p999=%d samples=%d ops=%d, want %d samples (1 in %d)",
				r.P50Ns, r.P99Ns, r.P999Ns, r.Samples, r.Ops, wantSamples, SampleEvery)
		}
		if r.Trials != 1 || r.Lo != 0 || r.Hi != 0 || r.P99HiNs != 0 {
			t.Errorf("quick record carries a spread: %+v", r)
		}
	}
}

// TestScenarioRunOwnsTheTrials scripts a cell that reports 9, 1, 5, 3, 4, 2
// Mops on successive builds: a full run builds it six times, discards the
// first as warm-up, and records the median trial (3) with its own gauges and
// latency next to the [1, 5] spread; a quick run builds it once.
func TestScenarioRunOwnsTheTrials(t *testing.T) {
	script := []int64{9, 1, 5, 3, 4, 2}
	builds := 0
	scen := Scenario{Family: "fake", Name: "scripted", Algos: []ScenarioAlgo{{Label: "A", Run: func(_ Config, th int) Result {
		mops := script[builds]
		builds++
		h := NewHistogram()
		h.Record(100 * mops)
		return Result{Workers: th, Ops: mops * 1e6, Elapsed: time.Second, Latency: h,
			Gauges: map[string]float64{"build": float64(builds)}}
	}}}}

	recs := scen.Run(Config{Threads: []int{2}})
	if builds != 6 || len(recs) != 1 {
		t.Fatalf("full run built the cell %d times into %d records, want 6 and 1", builds, len(recs))
	}
	r := recs[0]
	if r.Value != 3 || r.Trials != 5 || r.Lo != 1 || r.Hi != 5 {
		t.Errorf("value %v over %d trials in [%v, %v], want 3 over 5 in [1, 5]", r.Value, r.Trials, r.Lo, r.Hi)
	}
	if r.P99Ns != 300 || r.P99LoNs != 100 || r.P99HiNs != 500 {
		t.Errorf("p99 %d in [%d, %d], want the median trial's 300 in [100, 500]", r.P99Ns, r.P99LoNs, r.P99HiNs)
	}
	if r.Gauges["build"] != 4 || r.Ops != 3e6 || r.Threads != 2 {
		t.Errorf("record is not the median trial (the 4th build): %+v", r)
	}

	builds = 0
	if r := scen.Run(Config{Quick: true, Threads: []int{2}})[0]; builds != 1 || r.Value != 9 || r.Trials != 1 || r.Hi != 0 {
		t.Errorf("quick run: %d builds, record %+v; want one build and no spread", builds, r)
	}
}

// TestPoolScenarioShape: the S16 pool family must compare the
// work-stealing executor against the shared locked-queue and channel
// baselines, every cell must conserve its task graph (Ops identical
// across algorithms of a cell), and the WorkStealing records must carry
// the scheduling gauges the acceptance bar names. The baselines carry
// none — neither design has a steal or a park to count.
func TestPoolScenarioShape(t *testing.T) {
	cfg := Config{Quick: true, Threads: []int{2}, Ops: 2000}
	var fam []Scenario
	for _, s := range Scenarios() {
		if s.Family == "pool" {
			fam = append(fam, s)
		}
	}
	if len(fam) != 3 {
		t.Fatalf("pool family has %d scenarios, want 3", len(fam))
	}
	wantAlgos := []string{"WorkStealing", "SharedQueue", "Channel"}
	for _, s := range fam {
		var got []string
		for _, a := range s.Algos {
			got = append(got, a.Label)
		}
		if len(got) != len(wantAlgos) {
			t.Errorf("%s: algos = %v, want %v", s.Name, got, wantAlgos)
			continue
		}
		for i := range wantAlgos {
			if got[i] != wantAlgos[i] {
				t.Errorf("%s: algo[%d] = %q, want %q", s.Name, i, got[i], wantAlgos[i])
			}
		}
		opsByAlgo := map[string]int64{}
		for _, r := range s.Run(cfg) {
			if r.Ops <= 0 {
				t.Errorf("%s/%s: no tasks executed", s.Name, r.Algo)
			}
			opsByAlgo[r.Algo] = r.Ops
			// Every backend samples task sojourn latency per task.
			if r.P99Ns == 0 || r.Samples != uint64(r.Ops) {
				t.Errorf("%s/%s: sojourn latency missing or miscounted: p99=%d samples=%d ops=%d",
					s.Name, r.Algo, r.P99Ns, r.Samples, r.Ops)
			}
			if r.Algo != "WorkStealing" {
				if r.Gauges != nil {
					t.Errorf("%s/%s: unexpected gauges %v", s.Name, r.Algo, r.Gauges)
				}
				continue
			}
			if r.Gauges == nil {
				t.Errorf("%s/WorkStealing: record missing gauges", s.Name)
				continue
			}
			for _, key := range []string{"steals", "local_hits", "inject_hits", "parks", "executed"} {
				if _, ok := r.Gauges[key]; !ok {
					t.Errorf("%s/WorkStealing: gauge %q missing", s.Name, key)
				}
			}
			// Conservation inside the executor: every execution was
			// classified, and the count matches the cell's Ops.
			if got := r.Gauges["executed"]; got != float64(r.Ops) {
				t.Errorf("%s/WorkStealing: executed gauge %v != ops %d", s.Name, got, r.Ops)
			}
		}
		// The task graph is deterministic, so every executor must have
		// run exactly the same number of tasks.
		for algo, ops := range opsByAlgo {
			if ops != opsByAlgo["WorkStealing"] {
				t.Errorf("%s: %s ran %d tasks, WorkStealing ran %d — workload not conserved",
					s.Name, algo, ops, opsByAlgo["WorkStealing"])
			}
		}
	}
}
