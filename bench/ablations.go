package bench

import (
	"fmt"

	"github.com/cds-suite/cds/catalog"
	"github.com/cds-suite/cds/cmap"
	"github.com/cds-suite/cds/counter"
	"github.com/cds-suite/cds/stack"
)

// Ablations isolate the design parameters the experiment figures take as
// given: how wide should an elimination array be, how many stripes does a
// striped map need, how many shards a sharded counter. Each runs at full
// GOMAXPROCS and sweeps the parameter on the X axis. The swept knobs are
// constructor arguments, so these cells construct their structures
// directly rather than through the catalogue.
func Ablations() []Experiment {
	return []Experiment{
		{ID: "A1", Title: "Ablation: elimination array width (X = width)", XLabel: "width", Scenarios: one(eliminationScenario(
			fmt.Sprintf("A1: elimination width sweep at %d threads, 50/50 push-pop", fullThreads()),
			[]int{1, 2, 4, 8, 16, 32}, func(width int) *stack.Elimination[int] {
				s := stack.NewElimination[int](width, 128)
				s.PinWidth(width) // sweep true fixed widths, not adaptive caps
				return s
			}))},
		{ID: "A2", Title: "Ablation: elimination spin budget (X = spins)", XLabel: "spins", Scenarios: one(eliminationScenario(
			fmt.Sprintf("A2: elimination spin sweep at %d threads, width 8", fullThreads()),
			[]int{16, 64, 256, 1024, 4096}, func(spins int) *stack.Elimination[int] {
				s := stack.NewElimination[int](8, spins)
				s.PinWidth(8) // hold width fixed while the spin budget sweeps
				return s
			}))},
		{ID: "A3", Title: "Ablation: striped map stripe count (X = stripes)", XLabel: "stripes", Scenarios: one(stripesScenario())},
		{ID: "A4", Title: "Ablation: sharded counter shard count (X = shards)", XLabel: "shards", Scenarios: one(shardsScenario())},
		{ID: "A5", Title: "Ablation: LCRQ segment size vs MS/MPMC baselines (X = segment size)", XLabel: "segsize", Scenarios: one(segSizeScenario())},
	}
}

// eliminationScenario drives an elimination-backoff stack on the 50/50
// push-pop mix and reports two rows per sweep point: throughput, and hits
// per 100 elimination visits. With xs nil the sweep is the thread count;
// otherwise build's knob sweeps over xs at full threads.
func eliminationScenario(name string, xs []int, build func(x int) *stack.Elimination[int]) Scenario {
	run := func(cfg Config, x int) Result {
		th := fullThreads()
		if xs == nil {
			th = x
		}
		s := build(x)
		s.EnableStats(true)
		res := Run(th, cfg.ops(300000)/th+1, func(w int) func(int) {
			mix := NewMixGen(uint64(w)+41, 50, 50)
			return func(int) {
				if mix.Next() == 0 {
					s.Push(7)
				} else {
					s.TryPop()
				}
			}
		})
		if hits, misses := s.Stats(); hits+misses > 0 {
			res.Percent = 100 * float64(hits) / float64(hits+misses)
		}
		return res
	}
	sc := Scenario{Family: "stack", Name: name, Algos: []ScenarioAlgo{
		{Label: "Mops", Run: run},
		{Label: "hit-rate%", Percent: true, Run: run},
	}}
	if xs != nil {
		sc.Xs = func(Config) []int { return xs }
	}
	return sc
}

// stripesScenario sweeps the stripe count of the striped map under a
// write-heavy uniform mix (stripe contention is what the parameter buys
// down), re-using the hash-map figure's recipe.
func stripesScenario() Scenario {
	name := fmt.Sprintf("A3: striped map stripes sweep at %d threads, 50%% reads", fullThreads())
	wl := catalog.MapReads(50, 0, name)
	return Scenario{Family: "cmap", Name: name,
		Xs: func(Config) []int { return []int{1, 4, 16, 64, 256} },
		Algos: []ScenarioAlgo{{Label: "Striped", Run: func(cfg Config, stripes int) Result {
			return drive(cfg, catalog.Find("cmap", "Striped"), cmap.NewStriped[int, int](stripes), wl, fullThreads())
		}}}}
}

// shardsScenario sweeps the shard count of the sharded counter, inc-only.
func shardsScenario() Scenario {
	return Scenario{Family: "counter",
		Name: fmt.Sprintf("A4: sharded counter shards sweep at %d threads, inc-only", fullThreads()),
		Xs:   func(Config) []int { return []int{1, 2, 4, 8, 16, 32, 64, 128} },
		Algos: []ScenarioAlgo{{Label: "Sharded", Run: func(cfg Config, shards int) Result {
			c, th := counter.NewSharded(shards), fullThreads()
			return Run(th, cfg.ops(500000)/th+1, func(int) func(int) {
				h := c.Handle()
				return func(int) { h.Inc() }
			})
		}}}}
}
