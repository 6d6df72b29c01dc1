package bench

import (
	"errors"
	"fmt"
)

// gaugeInvariants are the relations among a record's gauges that hold by
// construction; each applies to the records that carry its gauge.
var gaugeInvariants = []struct {
	name  string
	needs string
	holds func(g map[string]float64) bool
}{
	{"hits+misses==lookups", "lookups", func(g map[string]float64) bool {
		return g["hits"]+g["misses"] == g["lookups"]
	}},
	{"stampede_suppressed<=misses", "stampede_suppressed", func(g map[string]float64) bool {
		return g["stampede_suppressed"] <= g["misses"]
	}},
	// Admission can only reject an insert after weighing it against a
	// victim.
	{"admission_rejects<=evict_considered", "admission_rejects", func(g map[string]float64) bool {
		return g["admission_rejects"] <= g["evict_considered"]
	}},
	// max_weight is 0 on cells without a weight bound.
	{"weight_resident<=max_weight", "max_weight", func(g map[string]float64) bool {
		return g["max_weight"] == 0 || g["weight_resident"] <= g["max_weight"]
	}},
	// Every executed task was found somewhere.
	{"executed==steals+local_hits+inject_hits", "executed", func(g map[string]float64) bool {
		return g["executed"] == g["steals"]+g["local_hits"]+g["inject_hits"]
	}},
	{"enqueues==dequeues+residual", "enqueues", func(g map[string]float64) bool {
		return g["enqueues"] == g["dequeues"]+g["residual"]
	}},
	{"segs_allocated==segs_recycled+segs_live+segs_retired_pending", "segs_allocated", func(g map[string]float64) bool {
		return g["segs_allocated"] == g["segs_recycled"]+g["segs_live"]+g["segs_retired_pending"]
	}},
	// A combiner that ran at all served at least its own request per pass.
	{"max_batch>=avg_batch>=1", "avg_batch", func(g map[string]float64) bool {
		return g["batches"] == 0 || g["max_batch"] >= g["avg_batch"] && g["avg_batch"] >= 1
	}},
}

// ValidateReport checks what must hold of any report the suite emits: the
// schema, a value inside its own trial spread, and on every record
// non-negative gauges satisfying the gauge invariants. It returns every
// violation, joined.
func ValidateReport(rep Report) error {
	var errs []error
	if rep.Schema != ReportSchema {
		errs = append(errs, fmt.Errorf("schema %q, want %q", rep.Schema, ReportSchema))
	}
	if len(rep.Records) == 0 {
		errs = append(errs, errors.New("no records"))
	}
	for _, r := range rep.Records {
		cell := recordKey(r)
		if r.Trials > 1 && (r.Lo > r.Value || r.Value > r.Hi || r.P99LoNs > r.P99Ns || r.P99Ns > r.P99HiNs) {
			errs = append(errs, fmt.Errorf("%v: median outside its trial spread: %+v", cell, r))
		}
		for name, v := range r.Gauges {
			if v < 0 {
				errs = append(errs, fmt.Errorf("%v: gauge %s = %v is negative", cell, name, v))
			}
		}
		for _, inv := range gaugeInvariants {
			if _, ok := r.Gauges[inv.needs]; ok && !inv.holds(r.Gauges) {
				errs = append(errs, fmt.Errorf("%v: %s violated: %v", cell, inv.name, r.Gauges))
			}
		}
	}
	return errors.Join(errs...)
}
