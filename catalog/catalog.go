package catalog

import (
	"slices"

	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/lincheck"
	"github.com/cds-suite/cds/reclaim"
)

// Progress is a variant's progress guarantee in the root package's taxonomy.
type Progress string

// The progress guarantees of the root package's taxonomy. Where a
// variant's operations differ, the row carries its update operations'
// guarantee; the variant's doc comment has the per-operation detail.
const (
	Blocking Progress = "blocking"
	LockFree Progress = "lock-free"
	WaitFree Progress = "wait-free"
)

// Accept is the set of constructor options a variant takes.
type Accept uint8

const (
	// Reclaim: WithReclaim, under EBR and HP.
	Reclaim Accept = 1 << iota
	// Recycle: WithRecycling under every domain Reclaim admits.
	Recycle
	// RecycleEBR: WithRecycling under EBR only (the split-ordered map).
	RecycleEBR
	// Backend: contend.WithBackend, over contend.Backends.
	Backend
)

// Cells is the set of derived benchmark cells a row takes part in; a
// Workload names the one group it belongs to with the same bits.
type Cells uint8

const (
	// Figure: the family's throughput-vs-threads figure (F2–F9, T2).
	Figure Cells = 1 << iota
	// FigureBackends: the figure also sweeps the combining backends.
	FigureBackends
	// Scenario: the family's latency-sampled mixes (S1–S8).
	Scenario
	// Contend: the empty-hovering symmetric cells of S13, swept over the
	// combining backends where the row accepts one.
	Contend
	// ReclaimFigure: F12, the row under GC / EBR / HP / recycled.
	ReclaimFigure
	// ReclaimScenario: the same sweep in the S14 reclaim-structs cells.
	ReclaimScenario
)

// Scheme names a reclamation domain kind; the zero value is the GC default.
type Scheme uint8

// The reclamation schemes WithReclaim accepts.
const (
	GC Scheme = iota
	EBR
	HP
)

// Options is one point of the option space. A variant's constructor reads
// the fields it accepts and ignores the rest, so harnesses can hand every
// row the same value.
type Options struct {
	Scheme  Scheme
	Recycle bool
	Backend contend.Backend
	// Tight selects the parameters that make rare transitions land inside
	// lincheck's tiny windows: segment size 2, elimination arrays of width
	// 2 with 16 spins, small rings and stripe counts, and reclamation
	// domains that advance or scan on every retire.
	Tight bool
	// Workers is the worker count about to drive the structure; only the
	// combining tree, whose shape is fixed at construction, reads it.
	Workers int

	dom reclaim.Domain
}

// Suffix names the option point after a row's label: "+EBR+recycle",
// "/CC-Synch", or "" for the defaults.
func (o Options) Suffix() string {
	s := [...]string{GC: "", EBR: "+EBR", HP: "+HP"}[o.Scheme]
	if o.Recycle {
		s += "+recycle"
	}
	if o.Backend != contend.BackendFlatCombining {
		s += "/" + o.Backend.String()
	}
	return s
}

func (o Options) domain() reclaim.Domain {
	switch o.Scheme {
	case EBR:
		d := reclaim.NewEBR()
		if o.Tight {
			d.SetAdvanceInterval(1)
		}
		return d
	case HP:
		d := reclaim.NewHP()
		if o.Tight {
			d.SetScanThreshold(1)
		}
		return d
	}
	return reclaim.NewGC()
}

// reclaimOpts translates o into one family package's option type.
func reclaimOpts[O any](o Options, with func(reclaim.Domain) O, recycling func() O) []O {
	opts := []O{with(o.dom)}
	if o.Recycle && recycling != nil {
		opts = append(opts, recycling())
	}
	return opts
}

// Variant is one row of a typed table: an implementation of root shape S.
type Variant[S any] struct {
	// Label names the row in benchmark records and, prefixed with Family,
	// in lincheck and cdslin.
	Label string
	// Family is the report family the row is measured in.
	Family   string
	Progress Progress
	Accepts  Accept
	In       Cells
	// Relaxed marks a variant whose reads are not linearizable by design;
	// it gets no lincheck target.
	Relaxed bool
	// Roles restricts which operations a lincheck client may draw
	// (indices into the shape's operations); nil defers to the shape.
	Roles func(client, clients int) []int
	// Worker returns worker w's view of s, for variants whose hot path
	// runs through a per-worker handle; nil means s itself.
	Worker func(s S, w int) S
	New    func(o Options) S
}

// op is one operation of a root shape, declared once for every harness:
// do runs it (bench calls it bare, so it must not box), in and out
// describe the same call to lincheck.
type op[S any] struct {
	do  func(s S, k, v int) (int, bool)
	in  func(k, v int) any
	out func(r int, ok bool) any
}

// shape is what every harness needs to know about a root interface. ops[0]
// is always the inserting operation, which is what prefill repeats.
type shape[S any] struct {
	name  string
	model lincheck.Model
	ops   []op[S]
	roles func(client, clients int) []int
}

// Result shapes the bundled models expect.
func none(int, bool) any        { return nil }
func okOnly(_ int, ok bool) any { return ok }
func valueOK(r int, ok bool) any {
	return lincheck.ValueOK{Value: r, OK: ok}
}

// Row is a Variant with its shape folded in and its type erased, so one
// loop can cross every table.
type Row struct {
	Label, Family, Shape string
	Progress             Progress
	Accepts              Accept
	In                   Cells
	Relaxed              bool
	Model                lincheck.Model

	build  func(Options) any
	worker func(s any, w int) func(kind, k int)
	client func(s any, client, clients int) func(*xrand.Rand, *lincheck.Recorder)
}

// New builds the variant under o and returns it with the reclamation
// domain it retires through (the no-op GC domain unless o.Scheme says
// otherwise), which is where the pending/reclaimed gauges live.
func (r Row) New(o Options) (any, reclaim.Domain) {
	o.dom = o.domain()
	return r.build(o), o.dom
}

// Worker returns worker w's applier over s: apply(kind, k) performs the
// shape's kind-th operation on key (or priority) k, discarding the result.
func (r Row) Worker(s any, w int) func(kind, k int) { return r.worker(s, w) }

// Options returns every option point the row accepts, defaults first.
func (r Row) Options() []Options {
	out := []Options{{}}
	if r.Accepts&Reclaim != 0 {
		for _, sc := range []Scheme{EBR, HP} {
			out = append(out, Options{Scheme: sc})
			if r.Accepts&Recycle != 0 || sc == EBR && r.Accepts&RecycleEBR != 0 {
				out = append(out, Options{Scheme: sc, Recycle: true})
			}
		}
	}
	if r.Accepts&Backend != 0 {
		for _, be := range contend.Backends()[1:] {
			out = append(out, Options{Backend: be})
		}
	}
	return out
}

func erase[S any](sh shape[S], table []Variant[S]) []Row {
	rows := make([]Row, 0, len(table))
	for _, v := range table {
		roles := v.Roles
		if roles == nil {
			roles = sh.roles
		}
		rows = append(rows, Row{
			Label: v.Label, Family: v.Family, Shape: sh.name, Progress: v.Progress,
			Accepts: v.Accepts, In: v.In, Relaxed: v.Relaxed, Model: sh.model,
			build: func(o Options) any { return v.New(o) },
			worker: func(s any, w int) func(kind, k int) {
				t := s.(S)
				if v.Worker != nil {
					t = v.Worker(t, w)
				}
				return func(kind, k int) { sh.ops[kind].do(t, k, 1) }
			},
			client: func(s any, client, clients int) func(*xrand.Rand, *lincheck.Recorder) {
				t := s.(S)
				allowed := make([]int, len(sh.ops))
				for i := range allowed {
					allowed[i] = i
				}
				if roles != nil {
					allowed = roles(client, clients)
				}
				// Tiny key and value ranges maximise conflicts.
				return func(rng *xrand.Rand, rec *lincheck.Recorder) {
					o := sh.ops[allowed[rng.Intn(len(allowed))]]
					k, val := rng.Intn(3), rng.Intn(4)
					p := rec.Begin(client, o.in(k, val))
					res, ok := o.do(t, k, val)
					p.End(o.out(res, ok))
				}
			},
		})
	}
	return rows
}

var rows = slices.Concat(
	erase(stackShape, Stacks), erase(queueShape, Queues), erase(boundedShape, BoundedQueues),
	erase(setShape, Sets), erase(mapShape, Maps), erase(pqShape, PriorityQueues),
	erase(dequeShape, Deques), erase(counterShape, Counters))

// Rows returns every table's rows in one slice: stacks, queues, bounded
// queues, sets, maps, priority queues, deques, counters.
func Rows() []Row { return rows }

// Select returns the rows of one report family that take part in the given
// derived cells.
func Select(family string, in Cells) []Row {
	var out []Row
	for _, r := range rows {
		if r.Family == family && r.In&in != 0 {
			out = append(out, r)
		}
	}
	return out
}

// Find returns the row with the given family and label; harness cells that
// need one particular variant name it this way. It panics on a miss: the
// arguments are literals.
func Find(family, label string) Row {
	for _, r := range rows {
		if r.Family == family && r.Label == label {
			return r
		}
	}
	panic("catalog: no row " + family + "/" + label)
}

// Target is one linearizability target: a row under one option point, with
// the Tight parameters.
type Target struct {
	// Name is family/label plus the option suffix: "queue/LCRQ+HP+recycle".
	Name  string
	Model lincheck.Model
	// Window builds a fresh structure for one recorded window and returns
	// the body each of the clients runs: ops random recorded operations.
	Window func(clients, ops int) func(client int, rng *xrand.Rand, rec *lincheck.Recorder)
}

// Targets returns every linearizable row under every option point it
// accepts: what lincheck's integration test and cdslin check.
func Targets() []Target {
	var out []Target
	for _, r := range Rows() {
		if r.Relaxed {
			continue
		}
		for _, o := range r.Options() {
			o.Tight = true
			out = append(out, Target{
				Name:  r.Family + "/" + r.Label + o.Suffix(),
				Model: r.Model,
				Window: func(clients, ops int) func(int, *xrand.Rand, *lincheck.Recorder) {
					s, _ := r.New(o)
					return func(client int, rng *xrand.Rand, rec *lincheck.Recorder) {
						step := r.client(s, client, clients)
						for i := 0; i < ops; i++ {
							step(rng, rec)
						}
					}
				},
			})
		}
	}
	return out
}
