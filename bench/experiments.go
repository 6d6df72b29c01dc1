package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/catalog"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/queue"
	"github.com/cds-suite/cds/stack"
)

// Config controls an experiment run.
type Config struct {
	// Threads is the sweep of worker counts; nil selects the default
	// ladder up to GOMAXPROCS.
	Threads []int
	// Ops is the operation budget of a cell, which most cells split among
	// their workers; 0 selects per-experiment defaults.
	Ops int
	// Quick caps the workload at smoke size and measures every cell once.
	Quick bool
}

func (c Config) threads() []int {
	if len(c.Threads) > 0 {
		return c.Threads
	}
	return DefaultThreadSweep(runtime.GOMAXPROCS(0))
}

func (c Config) ops(def int) int {
	n := c.Ops
	if n == 0 {
		n = def
	}
	if c.Quick && n > 10000 {
		n = 10000
	}
	return n
}

// Experiment is one reproducible figure, table or scenario family; the
// list returned by Experiments is the experiment index.
type Experiment struct {
	// ID is the experiment identifier (F1..F12, T1..T3, A1..A5, S1..).
	ID string
	// Title describes what the experiment shows.
	Title string
	// XLabel names the sweep parameter in text tables; empty means threads.
	XLabel string
	// Scenarios returns the workloads the experiment measures.
	Scenarios func() []Scenario
}

// Records measures the experiment: one record per planned cell.
func (e Experiment) Records(cfg Config) []Record {
	var recs []Record
	for _, s := range e.Scenarios() {
		recs = append(recs, s.Run(cfg)...)
	}
	return recs
}

// Run measures the experiment and renders the records as text-mode figures.
func (e Experiment) Run(cfg Config) []Figure { return figures(e, e.Records(cfg)) }

// Experiments returns the full suite: the figures and tables followed by
// the mixed-workload scenario matrix (S experiments). The figures of the
// catalogued families (F2–F8, F12) are derived from package catalog.
func Experiments() []Experiment {
	figure := func(group catalog.Cells, family string) func() []Scenario {
		return func() []Scenario { return derived(group, family) }
	}
	return append([]Experiment{
		{ID: "F1", Title: "Spin-lock scalability (tiny critical section)",
			Scenarios: one(lockScenario("F1: lock throughput, counter critical section", 2000000, 0, true))},
		{ID: "F2", Title: "Shared counter throughput", Scenarios: figure(catalog.Figure, "counter")},
		{ID: "F3", Title: "Stack algorithms, 50/50 push-pop", Scenarios: figure(catalog.Figure, "stack")},
		{ID: "F4", Title: "Queue algorithms, 50/50 enq-deq", Scenarios: figure(catalog.Figure, "queue")},
		{ID: "F5", Title: "List-based set progression, 90% reads", Scenarios: figure(catalog.Figure, "list")},
		{ID: "F6", Title: "Hash map scalability by read ratio and skew", Scenarios: figure(catalog.Figure, "cmap")},
		{ID: "F7", Title: "Skip list scalability, 90/5/5 mix", Scenarios: figure(catalog.Figure, "skiplist")},
		{ID: "F8", Title: "Priority queues, 50/50 insert-deleteMin", Scenarios: figure(catalog.Figure, "pqueue")},
		{ID: "F9", Title: "Work-stealing deque vs. locked deque", XLabel: "stealers", Scenarios: one(workStealingScenario())},
		{ID: "F10", Title: "Barrier episode throughput",
			Scenarios: one(barrierScenario("F10: barrier episodes per second (Mops column = M episodes/s × threads)", 0))},
		{ID: "F11", Title: "STM bank transfers vs. global lock", Scenarios: func() []Scenario {
			return []Scenario{
				stmScenario("F11: bank transfers/s, 64 accounts", 64, 1200000),
				stmScenario("F11: bank transfers/s, 65536 accounts", 1<<16, 1200000),
			}
		}},
		{ID: "F12", Title: "Memory reclamation on the lock-free structures: GC vs. EBR vs. HP vs. recycled",
			Scenarios: figure(catalog.ReclaimFigure, "")},
		{ID: "T1", Title: "Single-thread throughput overview (Mops/s; ns/op = 1000/Mops)", XLabel: "thread", Scenarios: one(overviewScenario())},
		{ID: "T2", Title: "Contention sensitivity under Zipf skew (maps, full threads)", XLabel: "theta*100", Scenarios: one(skewScenario())},
		{ID: "T3", Title: "Elimination hit rate (column = hits per 100 visits)", Scenarios: func() []Scenario {
			row := catalog.Find("stack", "Elimination")
			s := eliminationScenario("T3: elimination-backoff stack: hits per 100 elimination visits", nil,
				func(int) *stack.Elimination[int] {
					built, _ := row.New(catalog.Options{})
					return built.(*stack.Elimination[int])
				})
			s.Algos = s.Algos[1:] // the hit-rate row alone
			return []Scenario{s}
		}},
	}, ScenarioExperiments()...)
}

// ScenarioExperiments exposes the workload-mix matrix of bench/scenario.go
// as one experiment per structure family (S1, S2, ...), each running at
// least two scenario mixes.
func ScenarioExperiments() []Experiment {
	var exps []Experiment
	for i, family := range ScenarioFamilies() {
		exps = append(exps, Experiment{
			ID:    fmt.Sprintf("S%d", i+1),
			Title: fmt.Sprintf("Scenario mixes: %s (throughput + p99 latency)", family),
			Scenarios: func() []Scenario {
				var fam []Scenario
				for _, s := range Scenarios() {
					if s.Family == family {
						fam = append(fam, s)
					}
				}
				return fam
			},
		})
	}
	return exps
}

// BuildReport runs the given experiments (as selected by cmd/cdsbench)
// and assembles their records into a Report.
func BuildReport(cfg Config, exps []Experiment) Report {
	rep := Report{Schema: ReportSchema, Meta: NewMeta(cfg.Quick)}
	for _, e := range exps {
		rep.Records = append(rep.Records, e.Records(cfg)...)
	}
	return rep
}

// Find returns the experiment with the given ID, searching the main suite
// and the ablations.
func Find(id string) (Experiment, bool) {
	for _, e := range append(Experiments(), Ablations()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// one wraps a single scenario as an Experiment's list.
func one(s Scenario) func() []Scenario { return func() []Scenario { return []Scenario{s} } }

// fullThreads is the sweep of the tables that run at one thread count and
// vary something else.
func fullThreads() int { return runtime.GOMAXPROCS(0) }

// --- F9: work stealing -------------------------------------------------------

// workStealingScenario measures the deque rows as a work-stealing system,
// swept over the number of stealers. The owner produces tasks in bursts and
// executes what it pops locally; thieves execute what they steal. The
// metric is completed tasks per second — counting only the owner's ops
// would treat every successful steal (the deque's whole purpose) as lost
// work. Each task is ~300ns of computation, the fine-grained regime work
// stealing targets.
func workStealingScenario() Scenario {
	const burst = 32
	taskWork := func(seed uint64) uint64 {
		for k := 0; k < 64; k++ {
			seed = xrand.SplitMix64(&seed)
		}
		return seed
	}
	s := Scenario{
		Family: "deque",
		Name:   "F9: work-stealing system throughput (M tasks/s, ~300ns tasks) vs. stealers",
		Xs: func(Config) []int {
			sweep := []int{0}
			for k := 1; k <= max(fullThreads()-1, 1); k *= 2 {
				sweep = append(sweep, k)
			}
			return sweep
		},
	}
	for _, r := range catalog.Select("deque", catalog.Figure) {
		s.Algos = append(s.Algos, ScenarioAlgo{Label: r.Label, Run: func(cfg Config, thieves int) Result {
			built, _ := r.New(catalog.Options{})
			d := built.(cds.Deque[int])
			ownerOps := cfg.ops(1000000)
			var (
				wg       sync.WaitGroup
				stop     atomic.Bool
				consumed atomic.Int64
			)
			for t := 0; t < thieves; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					sink := uint64(t)
					for !stop.Load() {
						if v, ok := d.TryPopTop(); ok {
							sink = taskWork(uint64(v))
							consumed.Add(1)
						}
					}
					_ = sink
				}(t)
			}
			t0 := time.Now()
			var sink uint64
			for i := 0; i < ownerOps/burst; i++ {
				for j := 0; j < burst; j++ {
					d.PushBottom(j)
				}
				for {
					v, ok := d.TryPopBottom()
					if !ok {
						break
					}
					sink = taskWork(uint64(v))
					consumed.Add(1)
				}
			}
			// Drain stragglers (tasks the thieves have not picked up yet).
			for consumed.Load() < int64(ownerOps/burst*burst) {
				if v, ok := d.TryPopBottom(); ok {
					sink = taskWork(uint64(v))
					consumed.Add(1)
				}
			}
			elapsed := time.Since(t0)
			stop.Store(true)
			wg.Wait()
			_ = sink
			return Result{Workers: thieves, Ops: consumed.Load(), Elapsed: elapsed}
		}})
	}
	return s
}

// --- T1: single-thread overview ------------------------------------------------

// overviewScenario prices one insert-then-read (or insert-then-remove) pair
// per family's headline variants on a single thread. Kinds index the
// shape's operations: 0 inserts, 1 removes, 2 reads.
func overviewScenario() Scenario {
	pair := func(label, family, variant string, second, mask int) ScenarioAlgo {
		r := catalog.Find(family, variant)
		return ScenarioAlgo{Label: label, Family: family, Run: func(cfg Config, _ int) Result {
			s, _ := r.New(catalog.Options{})
			apply := r.Worker(s, 0)
			return Run(1, cfg.ops(1000000), func(int) func(int) {
				return func(i int) {
					apply(0, i&mask)
					apply(second, i&mask)
				}
			})
		}}
	}
	return Scenario{
		Name: "T1: single-thread throughput (Mops/s)",
		Xs:   func(Config) []int { return []int{1} },
		Algos: []ScenarioAlgo{
			pair("stack.Mutex", "stack", "Mutex", 1, -1),
			pair("stack.Treiber", "stack", "Treiber", 1, -1),
			pair("queue.Mutex", "queue", "Mutex", 1, -1),
			pair("queue.MS", "queue", "MS", 1, -1),
			// The SPSC ring is role-restricted (one producer, one consumer),
			// so the catalogue excludes it; one thread may play both roles.
			{Label: "queue.SPSC", Family: "queue", Run: func(cfg Config, _ int) Result {
				ring := queue.NewSPSC[int](1024)
				return Run(1, cfg.ops(2000000), func(int) func(int) {
					return func(i int) {
						ring.TryEnqueue(i)
						ring.TryDequeue()
					}
				})
			}},
			pair("cmap.Locked", "cmap", "Locked", 2, 1023),
			pair("cmap.Striped", "cmap", "Striped", 2, 1023),
			pair("cmap.SplitOrd", "cmap", "SplitOrdered", 2, 1023),
			pair("skip.Lazy", "skiplist", "Lazy", 2, 4095),
			pair("skip.LockFree", "skiplist", "LockFree", 2, 4095),
		},
	}
}

// --- T2: skew sensitivity --------------------------------------------------------

// skewScenario re-runs the 50%-read hash-map figure at full threads while
// sweeping the Zipf skew of the key stream (X = θ×100).
func skewScenario() Scenario {
	s := Scenario{
		Family: "cmap",
		Name:   fmt.Sprintf("T2: map throughput at %d threads vs. Zipf skew (X = θ×100), 50%% reads", fullThreads()),
		Xs:     func(Config) []int { return []int{0, 50, 90, 110} },
	}
	for _, r := range catalog.Select("cmap", catalog.Figure) {
		s.Algos = append(s.Algos, ScenarioAlgo{Label: r.Label, Run: func(cfg Config, theta100 int) Result {
			wl := catalog.MapReads(50, float64(theta100)/100, s.Name)
			return runWorkload(cfg, r, catalog.Options{}, wl, fullThreads())
		}})
	}
	return s
}
