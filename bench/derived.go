package bench

import (
	"github.com/cds-suite/cds/catalog"
	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/queue"
	"github.com/cds-suite/cds/reclaim"
)

// The derived cells: the throughput figures (F2–F8), the family scenario
// mixes (S1–S8), the contention cells (S13) and the reclamation sweeps (F12,
// S14) are one loop over the catalogue — every workload recipe of a group
// crossed with the rows that carry the group, each row swept over the
// options the group varies. Registering a variant in package catalog is
// what puts it in these cells.

// groupFamily is the report family of the groups that pool rows from
// several structure families; the others report under the row's own.
var groupFamily = map[catalog.Cells]string{
	catalog.Contend:         "contend",
	catalog.ReclaimFigure:   "reclaim",
	catalog.ReclaimScenario: "reclaim-structs",
}

// derived returns the group's scenarios, for one structure family or (with
// family "") for all of them, in catalogue order.
func derived(group catalog.Cells, family string) []Scenario {
	var out []Scenario
	for _, wl := range catalog.Workloads() {
		if wl.Group != group || family != "" && wl.Family != family {
			continue
		}
		s := Scenario{Family: groupFamily[group], Name: wl.Name}
		if s.Family == "" {
			s.Family = wl.Family
		}
		for _, r := range catalog.Select(wl.Family, group) {
			for _, o := range sweep(group, r) {
				label := r.Label + o.Suffix()
				if group&(catalog.ReclaimFigure|catalog.ReclaimScenario) != 0 {
					label = r.Label + "/" + reclaimLabel(o)
				}
				s.Algos = append(s.Algos, ScenarioAlgo{Label: label, Run: func(cfg Config, th int) Result {
					return runWorkload(cfg, r, o, wl, th)
				}})
			}
		}
		out = append(out, s)
	}
	return out
}

// sweep returns the option points a group measures row r at: the
// reclamation schemes in the reclaim groups, the combining backends where
// S13 (and the figures that ask for it) meet a row that accepts one, and
// the defaults otherwise.
func sweep(group catalog.Cells, r catalog.Row) []catalog.Options {
	switch {
	case group&(catalog.ReclaimFigure|catalog.ReclaimScenario) != 0:
		return reclaimSweep(r)
	case r.Accepts&catalog.Backend != 0 && (group == catalog.Contend || group == catalog.Figure && r.In&catalog.FigureBackends != 0):
		var out []catalog.Options
		for _, be := range contend.Backends() {
			out = append(out, catalog.Options{Backend: be})
		}
		return out
	}
	return []catalog.Options{{}}
}

// reclaimSweep is the scheme sweep F12 and the reclaim-structs scenarios
// measure on every lock-free structure: the zero-cost GC default, real EBR,
// real HP, and — where the row offers recycling — EBR with node reuse.
func reclaimSweep(r catalog.Row) []catalog.Options {
	out := []catalog.Options{{}, {Scheme: catalog.EBR}, {Scheme: catalog.HP}}
	if r.Accepts&(catalog.Recycle|catalog.RecycleEBR) != 0 {
		out = append(out, catalog.Options{Scheme: catalog.EBR, Recycle: true})
	}
	return out
}

func reclaimLabel(o catalog.Options) string {
	if o.Recycle {
		return "Recycled"
	}
	return [...]string{catalog.GC: "GC", catalog.EBR: "EBR", catalog.HP: "HP"}[o.Scheme]
}

// runWorkload measures one derived cell: build row r under o, drive wl on
// it, and attach the structure's gauges.
func runWorkload(cfg Config, r catalog.Row, o catalog.Options, wl catalog.Workload, th int) Result {
	o.Workers = th
	s, dom := r.New(o)
	res := drive(cfg, r, s, wl, th)
	res.Gauges = cellGauges(s, dom, wl.Group&(catalog.ReclaimFigure|catalog.ReclaimScenario) != 0)
	return res
}

// drive prefills s, an instance of row r's shape, and runs wl's mix on it
// from th workers. Each worker draws operation kinds from an
// exact-proportion MixGen and keys from its own stream, so cells differ
// only in the structure under test.
func drive(cfg Config, r catalog.Row, s any, wl catalog.Workload, th int) Result {
	fill, pre := r.Worker(s, 0), xrand.New(99)
	for i := 0; i < wl.Prefill; i++ {
		k := i
		if wl.Keys > 0 {
			k = pre.Intn(wl.Keys)
		}
		fill(0, k)
	}
	return Run(th, cfg.ops(wl.Ops)/th+1, func(w int) func(int) {
		apply := r.Worker(s, w)
		mix := NewMixGen(uint64(w)*7919+1, wl.MixFor(w)...)
		if wl.Keys == 0 {
			return func(i int) { apply(mix.Next(), i) }
		}
		keys, err := NewKeyStream(uint64(wl.Keys), wl.Theta, uint64(w)*2654435761+1)
		if err != nil {
			panic(err) // static parameters; cannot fail at runtime
		}
		return func(int) { apply(mix.Next(), int(keys.Next())) }
	})
}

// cellGauges flattens whichever Stats shape structure s exposes into record
// gauges and, under a deferring domain — or always, in the reclamation
// cells, where the GC rows report zeros — adds the domain's counters. It
// returns nil when there is nothing to report.
func cellGauges(s any, dom reclaim.Domain, reclaimCell bool) map[string]float64 {
	var g map[string]float64
	switch st := s.(type) {
	case interface{ Stats() contend.DelegatorStats }:
		g = delegatorGauges(st.Stats())
	case interface{ Stats() queue.SegStats }:
		g = segStatGauges(st.Stats())
	case interface{ Stats() queue.MPMCStats }:
		g = mpmcStatGauges(st.Stats())
	}
	if dom.Deferred() || reclaimCell {
		g = merge(g, reclaimGauges(dom))
	}
	return g
}

// reclaimGauges snapshots the domain's end-of-run pending-garbage and
// reclaimed counters (zero for the GC domain, which defers nothing).
func reclaimGauges(dom reclaim.Domain) map[string]float64 {
	return map[string]float64{"pending_garbage": float64(dom.Pending()), "reclaimed": float64(dom.Reclaimed())}
}

func merge(into, from map[string]float64) map[string]float64 {
	if into == nil {
		return from
	}
	for k, v := range from {
		into[k] = v
	}
	return into
}
