package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/barrier"
	"github.com/cds-suite/cds/catalog"
	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/dual"
	"github.com/cds-suite/cds/internal/epoch"
	"github.com/cds-suite/cds/internal/hazard"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/locks"
	"github.com/cds-suite/cds/reclaim"
	"github.com/cds-suite/cds/stm"
)

// The scenario engine complements the throughput-vs-threads figures with a
// matrix of mixed workloads: read/write ratio sweeps, Zipfian vs. uniform
// key streams, and producer/consumer-asymmetric mixes. Like the figures'
// cells they are timed by Run, so every record carries the tail-latency
// percentiles — the regime where lock-free and blocking designs differ
// most (Cederman et al.).

// mixBlock is the period over which MixGen proportions are exact.
const mixBlock = 100

// MixGen generates a deterministic stream of operation kinds with exact
// proportions: every consecutive block of 100 draws contains exactly
// pcts[k] operations of kind k, in an order shuffled by the seeded
// generator. Exactness (rather than i.i.d. sampling) keeps op mixes
// identical across algorithms and runs, so cells differ only in the
// structure under test.
type MixGen struct {
	proto []uint8
	block []uint8
	pos   int
	rng   *xrand.Rand
}

// NewMixGen returns a generator over kinds 0..len(pcts)-1. The
// percentages must be non-negative and sum to 100.
func NewMixGen(seed uint64, pcts ...int) *MixGen {
	sum := 0
	for _, p := range pcts {
		if p < 0 {
			panic(fmt.Sprintf("bench: negative mix percentage %d", p))
		}
		sum += p
	}
	if sum != mixBlock {
		panic(fmt.Sprintf("bench: mix percentages sum to %d, want %d", sum, mixBlock))
	}
	g := &MixGen{
		proto: make([]uint8, 0, mixBlock),
		block: make([]uint8, mixBlock),
		pos:   mixBlock, // force a refill on first Next
		rng:   xrand.New(seed),
	}
	for kind, p := range pcts {
		for i := 0; i < p; i++ {
			g.proto = append(g.proto, uint8(kind))
		}
	}
	return g
}

// Next returns the next operation kind.
func (g *MixGen) Next() int {
	if g.pos == mixBlock {
		copy(g.block, g.proto)
		// Fisher-Yates with the per-worker generator: a fresh exact-count
		// permutation per block.
		for i := mixBlock - 1; i > 0; i-- {
			j := g.rng.Intn(i + 1)
			g.block[i], g.block[j] = g.block[j], g.block[i]
		}
		g.pos = 0
	}
	k := g.block[g.pos]
	g.pos++
	return int(k)
}

// ScenarioAlgo is one implementation measured under a scenario.
type ScenarioAlgo struct {
	// Label names the implementation.
	Label string
	// Family overrides the scenario's family for this row's records;
	// cross-family tables (the T1 overview) use it.
	Family string
	// Percent marks a row whose headline is Result.Percent (unit
	// "percent"), not throughput.
	Percent bool
	// Run measures one cell: construct a fresh structure, prefill it, and
	// drive the scenario's workload at sweep point x — the thread count
	// unless the scenario declares its own sweep.
	Run func(cfg Config, x int) Result
}

// Scenario is one workload applied to every algorithm of a family, swept
// over thread counts (or over Xs). Every experiment — figure, table,
// ablation or scenario mix — is a list of these, so a run's record keys are
// known before anything is measured (Plan).
type Scenario struct {
	// Family is the structure family ("stack", "queue", ...).
	Family string
	// Name describes the workload (e.g. "enq-heavy-70/30"); it is the
	// records' scenario string.
	Name string
	// Xs is the sweep, when it is not the configured thread counts.
	Xs func(cfg Config) []int
	// Algos are the implementations measured under this workload.
	Algos []ScenarioAlgo
}

// Sweep returns the X values the scenario measures each algorithm at.
func (s Scenario) Sweep(cfg Config) []int {
	if s.Xs != nil {
		return s.Xs(cfg)
	}
	return cfg.threads()
}

// Plan returns the label-only records — family, scenario, algo, threads,
// unit — of every cell Run would measure, without measuring anything.
func (s Scenario) Plan(cfg Config) []Record {
	var recs []Record
	for _, a := range s.Algos {
		for _, x := range s.Sweep(cfg) {
			rec := Record{Family: s.Family, Algo: a.Label, Scenario: s.Name, Threads: x, Unit: UnitMops}
			if a.Family != "" {
				rec.Family = a.Family
			}
			if a.Percent {
				rec.Unit = UnitPercent
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// measuredTrials is the repetition of a full run: Run builds every cell
// once as a discarded warm-up and then this many times for the record. A
// quick run measures once.
const measuredTrials = 5

// Run measures the scenario, returning one record per planned cell. It is
// the one place repetition lives: each trial is a freshly built cell (a.Run
// constructs, prefills and drives it), the record is the median trial by
// headline value, and the spread fields span the trials. Trials go pass by
// pass over the scenario's cells, so those of one cell are spread over the
// scenario's run time rather than taken back to back.
func (s Scenario) Run(cfg Config) []Record {
	recs, xs := s.Plan(cfg), s.Sweep(cfg)
	warmups, n := 1, measuredTrials
	if cfg.Quick {
		warmups, n = 0, 1
	}
	trials := make([][]Record, len(recs))
	for pass := -warmups; pass < n; pass++ {
		for i, key := range recs {
			a := s.Algos[i/len(xs)]
			runtime.GC() // the previous trial's structure is garbage: collect it off the clock
			res := a.Run(cfg, key.Threads)
			rec := res.Record(key.Family, key.Algo, key.Scenario)
			rec.Threads = key.Threads
			if a.Percent {
				rec = key
				rec.Value = res.Percent
			}
			if pass >= 0 {
				trials[i] = append(trials[i], rec)
			}
		}
	}
	for i := range recs {
		recs[i] = medianTrial(trials[i])
	}
	return recs
}

// medianTrial returns the trial with the median headline value, annotated
// with the trial count and, when there is more than one, the [lo, hi] of
// the trials' values and p99s.
func medianTrial(trials []Record) Record {
	sort.Slice(trials, func(i, j int) bool { return trials[i].Value < trials[j].Value })
	rec := trials[len(trials)/2]
	rec.Trials = len(trials)
	if len(trials) > 1 {
		rec.Lo, rec.Hi = trials[0].Value, trials[len(trials)-1].Value
		rec.P99LoNs, rec.P99HiNs = rec.P99Ns, rec.P99Ns
		for _, t := range trials {
			rec.P99LoNs, rec.P99HiNs = min(rec.P99LoNs, t.P99Ns), max(rec.P99HiNs, t.P99Ns)
		}
	}
	return rec
}

// Scenarios returns the full mixed-workload matrix: at least two scenario
// cells per structure family beyond the throughput-vs-threads figures. The
// S-experiment numbering follows the order families first appear in.
func Scenarios() []Scenario {
	all := derived(catalog.Scenario, "")
	all = append(all, stmScenario("transfer-64-accounts", 64, 1200000),
		stmScenario("transfer-8k-accounts", 1<<13, 1200000),
		lockScenario("tiny-critical-section", 2000000, 0, false),
		lockScenario("long-critical-section-~250ns", 200000, 64, false),
		barrierScenario("back-to-back-episodes", 0),
		barrierScenario("staggered-arrival", 64))
	all = append(all, reclaimScenarios()...)
	all = append(all, derived(catalog.Contend, "")...)
	all = append(all, derived(catalog.ReclaimScenario, "")...)
	all = append(all, stalledReaderScenario())
	all = append(all, dualScenarios()...)
	all = append(all, poolScenarios()...)
	all = append(all, cacheScenarios()...)
	all = append(all, segQueueScenarios()...)
	return all
}

// ScenarioFamilies returns the distinct families in matrix order.
func ScenarioFamilies() []string {
	var fams []string
	seen := map[string]bool{}
	for _, s := range Scenarios() {
		if !seen[s.Family] {
			seen[s.Family] = true
			fams = append(fams, s.Family)
		}
	}
	return fams
}

// figures renders an experiment's records as text-mode figures: per
// scenario one headline-value table and, where the cells sampled latency,
// one p99 table.
func figures(e Experiment, recs []Record) []Figure {
	xlabel := e.XLabel
	if xlabel == "" {
		xlabel = "threads"
	}
	var figs []Figure
	index := map[string]int{} // scenario -> position of its headline figure
	for _, r := range recs {
		i, ok := index[r.Scenario]
		if !ok {
			i = len(figs)
			index[r.Scenario] = i
			title := strings.TrimPrefix(r.Scenario, e.ID+": ")
			figs = append(figs, Figure{ID: e.ID, Title: title, XLabel: xlabel})
			if r.Samples > 0 {
				figs[i].Title = title + ", throughput (Mops/s)"
				figs = append(figs, Figure{ID: e.ID, Title: title + ", p99 latency (column = µs)", XLabel: xlabel})
			}
		}
		figs[i].addPoint(r.Algo, r.Threads, r.Value)
		if r.Samples > 0 {
			figs[i+1].addPoint(r.Algo, r.Threads, float64(r.P99Ns)/1e3)
		}
	}
	return figs
}

func (f *Figure) addPoint(label string, x int, v float64) {
	for i := range f.Series {
		if f.Series[i].Label == label {
			f.Series[i].Points = append(f.Series[i].Points, Point{X: x, Mops: v})
			return
		}
	}
	f.Series = append(f.Series, Series{Label: label, Points: []Point{{X: x, Mops: v}}})
}

// --- bespoke families -------------------------------------------------------

// stmScenario is the bank-transfer workload of F11 and S9: STM transactions
// against one global lock, over the given number of accounts.
func stmScenario(name string, accounts, ops int) Scenario {
	transfer := func(w int, move func(from, to int)) func(int) {
		rng := xrand.New(uint64(w) + 23)
		return func(int) {
			from, to := rng.Intn(accounts), rng.Intn(accounts)
			if from == to {
				to = (to + 1) % accounts
			}
			move(from, to)
		}
	}
	return Scenario{Family: "stm", Name: name, Algos: []ScenarioAlgo{
		{Label: "STM", Run: func(cfg Config, th int) Result {
			vars := make([]*stm.TVar[int], accounts)
			for i := range vars {
				vars[i] = stm.NewTVar(1000)
			}
			return Run(th, cfg.ops(ops)/th+1, func(w int) func(int) {
				return transfer(w, func(from, to int) {
					stm.Atomically(func(tx *stm.Txn) {
						f := vars[from].Read(tx)
						vars[from].Write(tx, f-1)
						vars[to].Write(tx, vars[to].Read(tx)+1)
					})
				})
			})
		}},
		{Label: "GlobalLock", Run: func(cfg Config, th int) Result {
			balances := make([]int, accounts)
			var mu sync.Mutex
			return Run(th, cfg.ops(ops)/th+1, func(w int) func(int) {
				return transfer(w, func(from, to int) {
					mu.Lock()
					balances[from]--
					balances[to]++
					mu.Unlock()
				})
			})
		}},
	}}
}

// lockImpls are the spin locks of F1; scenario marks the three the S10
// mixes keep. mk returns a per-worker locker factory over one fresh lock
// (the queue locks hand each worker its own handle).
var lockImpls = []struct {
	label    string
	scenario bool
	mk       func() func() sync.Locker
}{
	{"sync.Mutex", true, sharedLocker(func() sync.Locker { return &sync.Mutex{} })},
	{"TAS", false, sharedLocker(func() sync.Locker { return &locks.TASLock{} })},
	{"TTAS", false, sharedLocker(func() sync.Locker { return &locks.TTASLock{} })},
	{"Backoff", true, sharedLocker(func() sync.Locker { return &locks.BackoffLock{} })},
	{"Ticket", true, sharedLocker(func() sync.Locker { return &locks.TicketLock{} })},
	{"MCS", false, func() func() sync.Locker { return new(locks.MCSLock).Locker }},
	{"CLH", false, func() func() sync.Locker { return new(locks.CLHLock).Locker }},
}

func sharedLocker(mk func() sync.Locker) func() func() sync.Locker {
	return func() func() sync.Locker {
		l := mk()
		return func() sync.Locker { return l }
	}
}

// lockScenario measures lock+increment+unlock under full contention. csWork
// controls the critical-section length: 0 is the tiny increment-only
// section of F1, larger values emulate real protected work (~4ns per
// SplitMix64 round).
func lockScenario(name string, ops, csWork int, all bool) Scenario {
	s := Scenario{Family: "locks", Name: name}
	for _, im := range lockImpls {
		if !all && !im.scenario {
			continue
		}
		s.Algos = append(s.Algos, ScenarioAlgo{Label: im.label, Run: func(cfg Config, th int) Result {
			factory := im.mk()
			shared := uint64(0)
			return Run(th, cfg.ops(ops)/th+1, func(int) func(int) {
				l := factory()
				return func(int) {
					l.Lock()
					shared++
					for k := 0; k < csWork; k++ {
						xrand.SplitMix64(&shared)
					}
					l.Unlock()
				}
			})
		}})
	}
	return s
}

// barrierImpls build an n-party barrier and return its per-party handle
// factory.
var barrierImpls = []struct {
	label string
	mk    func(n int) func() interface{ Wait() }
}{
	{"Sense", func(n int) func() interface{ Wait() } {
		b := barrier.NewSense(n)
		return func() interface{ Wait() } { return b.Handle() }
	}},
	{"Tree", func(n int) func() interface{ Wait() } {
		b := barrier.NewTree(n)
		return func() interface{ Wait() } { return b.Handle() }
	}},
	{"Dissemination", func(n int) func() interface{ Wait() } {
		b := barrier.NewDissemination(n)
		return func() interface{ Wait() } { return b.Handle() }
	}},
}

// barrierScenario measures barrier episodes. phaseWork sets how much local
// computation separates episodes: 0 is the pure synchronisation cost,
// larger values stagger the arrivals — the regime where tree/dissemination
// structure pays off because early arrivals overlap waiting with the
// stragglers' work.
func barrierScenario(name string, phaseWork int) Scenario {
	s := Scenario{Family: "barrier", Name: name}
	for _, im := range barrierImpls {
		s.Algos = append(s.Algos, ScenarioAlgo{Label: im.label, Run: func(cfg Config, th int) Result {
			handle := im.mk(th)
			return Run(th, cfg.ops(250000), func(w int) func(int) {
				h := handle()
				sink := uint64(w)
				return func(int) {
					for k := 0; k < phaseWork*(w+1)/th; k++ {
						xrand.SplitMix64(&sink)
					}
					h.Wait()
				}
			})
		}})
	}
	return s
}

func reclaimScenarios() []Scenario {
	type node struct{ v int }
	mkScenario := func(name string, readPct int) Scenario {
		s := Scenario{Family: "reclaim", Name: name}
		s.Algos = append(s.Algos, ScenarioAlgo{Label: "EBR", Run: func(cfg Config, th int) Result {
			c := epoch.NewCollector()
			var shared atomic.Pointer[node]
			shared.Store(&node{})
			return Run(th, cfg.ops(1500000)/th+1, func(w int) func(int) {
				p := c.Register()
				mix := NewMixGen(uint64(w)*61+31, readPct, 100-readPct)
				return func(int) {
					if mix.Next() == 0 {
						p.Pin()
						_ = shared.Load()
						p.Unpin()
					} else {
						old := shared.Swap(&node{})
						p.Retire(nil, reclaim.FreeFunc(func() { _ = old }))
					}
				}
			})
		}})
		s.Algos = append(s.Algos, ScenarioAlgo{Label: "HazardPtr", Run: func(cfg Config, th int) Result {
			d := hazard.NewDomain()
			var shared atomic.Pointer[node]
			shared.Store(&node{})
			return Run(th, cfg.ops(1500000)/th+1, func(w int) func(int) {
				h := d.NewHandle(1)
				mix := NewMixGen(uint64(w)*61+31, readPct, 100-readPct)
				return func(int) {
					if mix.Next() == 0 {
						hazard.Protect(h.Slot(0), &shared)
						h.Slot(0).Clear()
					} else {
						old := shared.Swap(&node{})
						h.Retire(unsafe.Pointer(old), nil, reclaim.FreeFunc(func() { _ = old }))
					}
				}
			})
		}})
		return s
	}
	return []Scenario{
		mkScenario("read-mostly-90/10", 90),
		mkScenario("swap-heavy-50/50", 50),
	}
}

// delegatorGauges flattens a combining backend's stats into record gauges.
// avg_batch is the headline: batch size growing with the thread count is
// the signature of delegation working, and comparing it across the
// FlatCombining/CC-Synch/DSM-Synch rows of one cell shows which protocol
// keeps batches full.
func delegatorGauges(s contend.DelegatorStats) map[string]float64 {
	return map[string]float64{
		"batches":      float64(s.Batches),
		"ops_combined": float64(s.Ops),
		"max_batch":    float64(s.MaxBatch),
		"avg_batch":    s.AvgBatch(),
		"handoffs":     float64(s.Handoffs),
	}
}

// stalledReaderScenario is S14's adversarial cell: worker 0 holds a guard
// section open across stallBatch operations on the lock-free skip list
// while the rest churn add/remove. EBR cannot advance the epoch past a
// pinned reader, so its pending gauge grows with the stall length; HP's
// stays bounded by the slot count.
func stalledReaderScenario() Scenario {
	const keyRange, stallBatch = 256, 2048
	sc := Scenario{Family: "reclaim-structs", Name: "skiplist-stalled-reader-churn"}
	for _, r := range catalog.Select("skiplist", catalog.ReclaimScenario) {
		for _, o := range reclaimSweep(r) {
			sc.Algos = append(sc.Algos, ScenarioAlgo{Label: r.Label + "/" + reclaimLabel(o), Run: func(cfg Config, th int) Result {
				built, dom := r.New(o)
				s := built.(cds.Set[int])
				pre := xrand.New(3)
				for i := 0; i < keyRange/2; i++ {
					s.Add(pre.Intn(keyRange))
				}
				stall := dom.NewGuard(1)
				res := Run(th, cfg.ops(300000)/th+1, func(w int) func(int) {
					if w == 0 {
						// The stalled reader: reads inside a section it only
						// leaves every stallBatch operations.
						rng := xrand.New(uint64(w) + 51)
						count := 0
						stall.Enter()
						//cdsvet:ignore guardexit stalled-reader scenario: the guard deliberately stays entered across the factory return to pin reclamation
						return func(int) {
							s.Contains(rng.Intn(keyRange))
							count++
							if count%stallBatch == 0 {
								stall.Exit()
								stall.Enter()
							}
						} //cdsvet:ignore guardexit stalled-reader scenario: the worker exits and re-enters only every stallBatch ops, holding the guard between calls on purpose
					}
					mix := NewMixGen(uint64(w)*61+31, 50, 50)
					rng := xrand.New(uint64(w)*7919 + 5)
					return func(int) {
						k := rng.Intn(keyRange)
						if mix.Next() == 0 {
							s.Add(k)
						} else {
							s.Remove(k)
						}
					}
				})
				// Snapshot the gauges while the stall is still pinned: the
				// whole point is the garbage a stalled reader strands.
				res.Gauges = reclaimGauges(dom)
				stall.Exit()
				stall.Release()
				return res
			}})
		}
	}
	return sc
}

// chanBQ adapts a Go channel to the blocking-queue shape so the dual
// scenarios carry the obvious baseline: the runtime's own blocking queue.
type chanBQ struct{ ch chan int }

func (q chanBQ) Put(ctx context.Context, v int) error {
	select {
	case q.ch <- v:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (q chanBQ) Take(ctx context.Context) (int, error) {
	select {
	case v := <-q.ch:
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func (q chanBQ) Len() int { return len(q.ch) }

// dualGauges surfaces a dual structure's waiter-management counters as
// record gauges (the blocking counterpart of the reclamation cells'
// pending_garbage/reclaimed pair).
func dualGauges(st dual.Stats) map[string]float64 {
	return map[string]float64{
		"reservations": float64(st.Reservations),
		"fulfilled":    float64(st.Fulfilled),
		"parks":        float64(st.Parks),
		"cancelled":    float64(st.Cancelled),
		"handoffs":     float64(st.Handoffs),
	}
}

// dualOpTimeout bounds every blocking operation in the dual cells. It is
// the cancellation budget of the scenario family: an op that finds no
// partner (or no room) within it returns ctx.Err, counts in the cancelled
// gauge, and keeps every cell terminating at any thread count — including
// the degenerate single-thread cells where a rendezvous can never pair.
// Blocking cells therefore measure wait behaviour, not pure CPU cost:
// latency percentiles include parked time and timer overhead, which is
// exactly what distinguishes the designs (see README, "Reading the
// benchmarks").
const dualOpTimeout = 100 * time.Microsecond

// dualCellBudget bounds a dual cell's wall time. Timers are coarse (the
// 100µs deadline is delivered after ~1.1ms on a virtualised box), so a cell
// where most operations cancel would otherwise spend a minute timing the
// host's timer slack; Result.Ops and the gauges report what actually ran.
const dualCellBudget = 2 * time.Second

// dualScenarios (experiment S15) measures the blocking family under the
// three regimes the dual design targets: producer-heavy backpressure,
// bursty production with consumer droughts (parks), and a symmetric
// rendezvous mix with tight cancellation deadlines.
func dualScenarios() []Scenario {
	impls := []struct {
		label string
		mk    func(cap int) (cds.BlockingQueue[int], func() map[string]float64)
	}{
		{"DualMS", func(int) (cds.BlockingQueue[int], func() map[string]float64) {
			q := dual.NewMSQueue[int]()
			return q, func() map[string]float64 { return dualGauges(q.Stats()) }
		}},
		{"Sync", func(int) (cds.BlockingQueue[int], func() map[string]float64) {
			q := dual.NewSync[int](0, 0)
			return q, func() map[string]float64 { return dualGauges(q.Stats()) }
		}},
		{"Bounded", func(capacity int) (cds.BlockingQueue[int], func() map[string]float64) {
			q := dual.NewBounded[int](capacity)
			return q, func() map[string]float64 { return dualGauges(q.Stats()) }
		}},
		// Buffered channel: the baseline every Go blocking queue is
		// implicitly compared against. No gauges — the runtime does not
		// expose its park counts.
		{"Channel", func(capacity int) (cds.BlockingQueue[int], func() map[string]float64) {
			return chanBQ{ch: make(chan int, capacity)}, nil
		}},
	}
	const capacity = 1024

	mkScenario := func(name string, roles func(w int, q cds.BlockingQueue[int]) func(i int)) Scenario {
		s := Scenario{Family: "dual", Name: name}
		for _, im := range impls {
			mk := im.mk
			s.Algos = append(s.Algos, ScenarioAlgo{Label: im.label, Run: func(cfg Config, th int) Result {
				q, gauges := mk(capacity)
				// The cell ends at its op budget or its wall budget: workers
				// are independent, so one that stops early strands nothing.
				var expired atomic.Bool
				defer time.AfterFunc(dualCellBudget, func() { expired.Store(true) }).Stop()
				res := Run(th, cfg.ops(100000)/th+1, func(w int) func(int) {
					op := roles(w, q)
					return func(i int) {
						if expired.Load() {
							runtime.Goexit()
						}
						op(i)
					}
				})
				if gauges != nil {
					res.Gauges = gauges()
				}
				return res
			}})
		}
		return s
	}

	put := func(q cds.BlockingQueue[int], v int) {
		ctx, cancel := context.WithTimeout(context.Background(), dualOpTimeout)
		_ = q.Put(ctx, v)
		cancel()
	}
	take := func(q cds.BlockingQueue[int]) {
		ctx, cancel := context.WithTimeout(context.Background(), dualOpTimeout)
		_, _ = q.Take(ctx)
		cancel()
	}

	return []Scenario{
		// Two producers per consumer: the unbounded queue absorbs the
		// surplus, the bounded queue and channel exert backpressure
		// (producer parks), the synchronous queue throttles producers to
		// the consumer rate by construction.
		mkScenario("producer-heavy-2:1", func(w int, q cds.BlockingQueue[int]) func(int) {
			// Worker 1, 4, 7, ... consume, the rest produce: at two
			// threads the cell is a clean 1:1 pair, from four on it is
			// producer-heavy.
			if w%3 == 1 {
				return func(int) { take(q) }
			}
			return func(i int) { put(q, i) }
		}),
		// One bursty producer, the rest consumers: bursts of 64 puts
		// alternate with equal droughts, so consumers oscillate between
		// draining data and parking on reservations (the parks and
		// cancelled gauges are the signal here).
		mkScenario("burst-64-1p-consumers", func(w int, q cds.BlockingQueue[int]) func(int) {
			if w == 0 {
				return func(i int) {
					if (i/64)%2 == 0 {
						put(q, i)
					} else {
						runtime.Gosched() // drought: the producer goes quiet
					}
				}
			}
			return func(int) { take(q) }
		}),
		// Symmetric 50/50 put/take from every worker under the tight
		// deadline: the rendezvous regime (and, at one thread, the
		// degenerate all-cancellations cell that sizes the cancellation
		// path itself).
		mkScenario("rendezvous-50/50-cancel", func(w int, q cds.BlockingQueue[int]) func(int) {
			mix := NewMixGen(uint64(w)*271+9, 50, 50)
			return func(i int) {
				if mix.Next() == 0 {
					put(q, i)
				} else {
					take(q)
				}
			}
		}),
	}
}
