package bench

import (
	"strings"
	"testing"
)

// TestValidateReportCatchesEachInvariant injects one violation per gauge
// invariant into an otherwise valid report and requires ValidateReport to
// name it — and to accept the report once the violation is removed.
func TestValidateReportCatchesEachInvariant(t *testing.T) {
	// Per invariant: gauges that satisfy it, and the gauge to bump to break it.
	cases := map[string]struct {
		gauges map[string]float64
		bump   string
	}{
		"hits+misses==lookups":                    {map[string]float64{"hits": 3, "misses": 1, "lookups": 4}, "lookups"},
		"stampede_suppressed<=misses":             {map[string]float64{"stampede_suppressed": 1, "misses": 1}, "stampede_suppressed"},
		"admission_rejects<=evict_considered":     {map[string]float64{"admission_rejects": 2, "evict_considered": 2}, "admission_rejects"},
		"weight_resident<=max_weight":             {map[string]float64{"weight_resident": 8, "max_weight": 8}, "weight_resident"},
		"executed==steals+local_hits+inject_hits": {map[string]float64{"executed": 6, "steals": 1, "local_hits": 2, "inject_hits": 3}, "executed"},
		"enqueues==dequeues+residual":             {map[string]float64{"enqueues": 5, "dequeues": 3, "residual": 2}, "residual"},
		"segs_allocated==segs_recycled+segs_live+segs_retired_pending": {
			map[string]float64{"segs_allocated": 4, "segs_recycled": 1, "segs_live": 2, "segs_retired_pending": 1}, "segs_live"},
		"max_batch>=avg_batch>=1": {map[string]float64{"batches": 2, "max_batch": 3, "avg_batch": 2}, "avg_batch"},
	}
	report := func(g map[string]float64) Report {
		rep := goldenReport()
		rep.Records[0].Gauges = g
		return rep
	}
	for _, inv := range gaugeInvariants {
		c, ok := cases[inv.name]
		if !ok {
			t.Errorf("invariant %q has no test case", inv.name)
			continue
		}
		if err := ValidateReport(report(c.gauges)); err != nil {
			t.Errorf("%s: valid gauges rejected: %v", inv.name, err)
		}
		c.gauges[c.bump] += 2
		if err := ValidateReport(report(c.gauges)); err == nil || !strings.Contains(err.Error(), inv.name) {
			t.Errorf("%s: violation not reported: %v", inv.name, err)
		}
	}

	for name, mutate := range map[string]func(*Report){
		"negative":   func(r *Report) { r.Records[2].Gauges["reclaimed"] = -1 },
		"schema":     func(r *Report) { r.Schema = "cds-bench/v0" },
		"no records": func(r *Report) { r.Records = nil },
		"spread":     func(r *Report) { r.Records[0].Hi = r.Records[0].Value / 2 },
	} {
		rep := goldenReport()
		mutate(&rep)
		if err := ValidateReport(rep); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s violation not reported: %v", name, err)
		}
	}
}

// TestReportContents runs the gauge-carrying families at smoke size and
// checks what a report must contain beyond the per-record invariants: that
// each family's gauges are present, and that the mechanisms they count
// actually engaged. (Which rows exist is pinned by TestQuickRunKeySet.)
func TestReportContents(t *testing.T) {
	families := map[string]int{ // family -> op budget that engages its mechanisms
		"reclaim": 1500, "reclaim-structs": 3000, "contend": 3000, "dual": 2000,
		"pool": 2000, "cache": 10000, "queue-segmented": 10000,
	}
	rep := Report{Schema: ReportSchema, Meta: NewMeta(true)}
	for _, e := range Experiments() {
		for _, s := range e.Scenarios() {
			if ops, ok := families[s.Family]; ok {
				rep.Records = append(rep.Records, s.Run(Config{Quick: true, Threads: []int{2}, Ops: ops})...)
			}
		}
	}
	if err := ValidateReport(rep); err != nil {
		t.Errorf("suite report violates its own invariants:\n%v", err)
	}

	in := func(family, scenario, algo string) []Record {
		var out []Record
		for _, r := range rep.Records {
			if r.Family == family && strings.Contains(r.Scenario, scenario) && strings.Contains(r.Algo, algo) {
				out = append(out, r)
			}
		}
		return out
	}
	all := func(recs []Record, gauges ...string) bool {
		for _, r := range recs {
			for _, g := range gauges {
				if _, ok := r.Gauges[g]; !ok {
					return false
				}
			}
		}
		return len(recs) > 0
	}
	some := func(recs []Record, gauge string) bool {
		for _, r := range recs {
			if r.Gauges[gauge] > 0 {
				return true
			}
		}
		return false
	}
	positive := func(recs []Record, gauges ...string) bool {
		for _, r := range recs {
			for _, g := range gauges {
				if r.Gauges[g] <= 0 {
					return false
				}
			}
		}
		return len(recs) > 0
	}
	combining := append(in("contend", "", "FC"), in("contend", "", "Combining")...)
	duals := append(in("dual", "", "DualMS"), append(in("dual", "", "Sync"), in("dual", "", "Bounded")...)...)
	for _, c := range []struct {
		claim string
		holds bool
	}{
		{"every F12 record carries the reclamation gauges", all(in("reclaim", "F12", ""), "pending_garbage", "reclaimed")},
		{"every reclaim-structs record carries the reclamation gauges", all(in("reclaim-structs", "", ""), "pending_garbage", "reclaimed")},
		{"a deferring domain reclaimed something", some(in("reclaim-structs", "", "EBR"), "reclaimed")},
		{"every dual structure carries the waiter gauges", all(duals, "parks", "fulfilled", "reservations", "cancelled", "handoffs")},
		{"the channel baseline carries no gauges", !all(in("dual", "", "Channel"), "parks")},
		{"the Sync rendezvous cell engaged its waiters", some(in("dual", "rendezvous", "Sync"), "reservations") || some(in("dual", "rendezvous", "Sync"), "handoffs")},
		{"a pool cell found work on its own deque", some(in("pool", "", "WorkStealing"), "local_hits")},
		{"every cache record carries the accounting gauges", all(in("cache", "", ""), "hits", "misses", "lookups", "hit_rate", "evictions", "expired",
			"loads", "stampede_suppressed", "weight_resident", "max_weight", "admission_rejects", "evict_considered")},
		{"a cache cell hit", some(in("cache", "", ""), "hits")},
		{"a TinyLFU loopy cell rejected an insert", some(in("cache", "loopy-admission", "TinyLFU"), "admission_rejects")},
		{"the weight-bounded cells held resident weight under a budget", positive(in("cache", "weighted-heavy-tail", "weights"), "weight_resident", "max_weight")},
		{"every S18 record carries the conservation gauges", all(in("queue-segmented", "", ""), "enqueues", "dequeues", "residual")},
		{"the LCRQ rows carry the segment-lifecycle gauges", all(in("queue-segmented", "", "LCRQ"), "segs_allocated", "segs_recycled", "segs_live",
			"segs_retired_pending", "segs_closed", "segs_reused", "enq_slowpath", "deq_abandoned")},
		{"a recycling LCRQ cell reused a segment", some(in("queue-segmented", "", "EBR-recycle"), "segs_reused")},
		{"CC-Synch and DSM-Synch rows exist", len(in("contend", "", "/CC-Synch")) > 0 && len(in("contend", "", "/DSM-Synch")) > 0},
		{"every combining row carries the delegation gauges", all(combining, "batches", "ops_combined", "max_batch", "avg_batch", "handoffs")},
		{"every combining row combined", positive(combining, "ops_combined", "batches")},
	} {
		if !c.holds {
			t.Errorf("claim does not hold: %s", c.claim)
		}
	}
}
