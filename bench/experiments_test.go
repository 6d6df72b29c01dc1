package bench

import (
	"strings"
	"testing"
)

// TestExperimentsSmoke runs every experiment at smoke size on a tiny
// sweep: the full figure-generation code path must produce well-formed,
// renderable figures with the expected series.
func TestExperimentsSmoke(t *testing.T) {
	cfg := Config{Quick: true, Threads: []int{1, 2}, Ops: 2000}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			figs := e.Run(cfg)
			if len(figs) == 0 {
				t.Fatalf("%s produced no figures", e.ID)
			}
			for _, fig := range figs {
				if fig.ID == "" || fig.Title == "" || fig.XLabel == "" {
					t.Fatalf("%s: incomplete figure metadata: %+v", e.ID, fig)
				}
				if len(fig.Series) == 0 {
					t.Fatalf("%s: figure %q has no series", e.ID, fig.Title)
				}
				for _, s := range fig.Series {
					if s.Label == "" {
						t.Fatalf("%s: unlabelled series", e.ID)
					}
					if len(s.Points) == 0 {
						t.Fatalf("%s: series %q has no points", e.ID, s.Label)
					}
					for _, p := range s.Points {
						if p.Mops < 0 {
							t.Fatalf("%s/%s: negative throughput %v", e.ID, s.Label, p.Mops)
						}
					}
				}
				var sb strings.Builder
				if err := fig.Render(&sb); err != nil {
					t.Fatalf("%s: render: %v", e.ID, err)
				}
				if !strings.Contains(sb.String(), fig.ID) {
					t.Fatalf("%s: render output missing figure ID:\n%s", e.ID, sb.String())
				}
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("F1"); !ok {
		t.Fatal("F1 not found")
	}
	if _, ok := Find("A1"); !ok {
		t.Fatal("A1 not found")
	}
	if _, ok := Find("F99"); ok {
		t.Fatal("phantom experiment found")
	}
}

// TestAblationsSmoke runs the ablation sweeps at smoke size.
func TestAblationsSmoke(t *testing.T) {
	cfg := Config{Quick: true, Ops: 2000}
	for _, e := range Ablations() {
		t.Run(e.ID, func(t *testing.T) {
			figs := e.Run(cfg)
			if len(figs) == 0 {
				t.Fatalf("%s produced no figures", e.ID)
			}
			for _, fig := range figs {
				if len(fig.Series) == 0 {
					t.Fatalf("%s: no series", e.ID)
				}
				var sb strings.Builder
				if err := fig.Render(&sb); err != nil {
					t.Fatalf("%s: render: %v", e.ID, err)
				}
			}
		})
	}
}

func TestRunnerCountsOps(t *testing.T) {
	var n [4]int
	res := Run(4, 1000, func(w int) func(int) {
		return func(int) { n[w]++ }
	})
	if res.Ops != 4000 {
		t.Fatalf("Ops = %d, want 4000", res.Ops)
	}
	for w, c := range n {
		if c != 1000 {
			t.Fatalf("worker %d did %d ops, want 1000", w, c)
		}
	}
	if res.Throughput() <= 0 || res.NsPerOp() <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
}

func TestKeyStream(t *testing.T) {
	u, err := NewKeyStream(100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	z, err := NewKeyStream(100, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if k := u.Next(); k >= 100 {
			t.Fatalf("uniform key %d out of range", k)
		}
		if k := z.Next(); k >= 100 {
			t.Fatalf("zipf key %d out of range", k)
		}
	}
	if _, err := NewKeyStream(10, 1.0, 1); err == nil {
		t.Fatal("theta=1 accepted")
	}
}

func TestDefaultThreadSweep(t *testing.T) {
	sweep := DefaultThreadSweep(24)
	want := []int{1, 2, 4, 8, 16, 24}
	if len(sweep) != len(want) {
		t.Fatalf("sweep = %v, want %v", sweep, want)
	}
	for i := range want {
		if sweep[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", sweep, want)
		}
	}
	if got := DefaultThreadSweep(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("sweep(1) = %v", got)
	}
}
