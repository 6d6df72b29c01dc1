// Package catalog is the one place a structure variant is registered: a
// typed table per root shape (cds.Stack, Queue, BoundedQueue, Set, Map,
// PriorityQueue, Deque, Counter) whose rows give each variant's label,
// report family, progress guarantee, the constructor options it accepts
// (reclamation domain, recycling, combining backend, and the "tight"
// parameters that make rare transitions land inside lincheck's windows),
// and the derived cells it takes part in.
//
// What a harness needs is declared once per shape, not per variant: the
// shape's operations — each with the lincheck input and result form of the
// same call — its sequential model, and any role split its windows need;
// and once per family, the workload recipes (op mix, prefill, key range,
// default op count) of the throughput figure, the scenario mixes, the
// contention cells and the reclamation sweeps. The harnesses are loops
// over this package: bench derives F2–F8, F12, T2, S1–S8, S13, S14 and the
// root testing.B entry points from Rows × Workloads; lincheck's integration
// test and cmd/cdslin check Targets, every linearizable row under every
// option point it accepts. Cells whose driver is bespoke (S18's segment
// gauges, T1's operation pairs, F9's work-stealing system, the S14 stalled
// reader) still take their constructors from here, by Find.
//
// Nothing in this package runs concurrently, and only harnesses import it.
package catalog
