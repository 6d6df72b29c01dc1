// Top-level testing.B benchmarks: one entry point per figure and table of
// the experiment index (bench.Experiments), sized for `go test -bench`.
// Each sub-benchmark is one row of the experiment — the same cell, built by
// the same code, that cmd/cdsbench sweeps over thread counts — measured
// once at the top of its sweep (GOMAXPROCS workers for the thread-swept
// figures) with b.N operations.
package cds_test

import (
	"strings"
	"testing"

	"github.com/cds-suite/cds/bench"
)

// figure runs every row of experiment id as a sub-benchmark. ns/op is the
// harness's own measured region, so prefill and goroutine start-up are
// excluded just as they are in cdsbench.
func figure(b *testing.B, id string) {
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("no experiment %s", id)
	}
	scenarios := e.Scenarios()
	for _, s := range scenarios {
		for _, a := range s.Algos {
			name := a.Label
			if len(scenarios) > 1 {
				name = strings.TrimPrefix(s.Name, id+": ") + "/" + a.Label
			}
			b.Run(name, func(b *testing.B) {
				cfg := bench.Config{Ops: b.N}
				sweep := s.Sweep(cfg)
				res := a.Run(cfg, sweep[len(sweep)-1])
				b.ReportMetric(res.NsPerOp(), "ns/op")
				if a.Percent {
					b.ReportMetric(res.Percent, "hit-%")
				}
			})
		}
	}
}

func BenchmarkF1Locks(b *testing.B)          { figure(b, "F1") }
func BenchmarkF2Counters(b *testing.B)       { figure(b, "F2") }
func BenchmarkF3Stacks(b *testing.B)         { figure(b, "F3") }
func BenchmarkF4Queues(b *testing.B)         { figure(b, "F4") }
func BenchmarkF5ListSets(b *testing.B)       { figure(b, "F5") }
func BenchmarkF6Maps(b *testing.B)           { figure(b, "F6") }
func BenchmarkF7SkipLists(b *testing.B)      { figure(b, "F7") }
func BenchmarkF8PriorityQueues(b *testing.B) { figure(b, "F8") }
func BenchmarkF9Deque(b *testing.B)          { figure(b, "F9") }
func BenchmarkF10Barriers(b *testing.B)      { figure(b, "F10") }
func BenchmarkF11STM(b *testing.B)           { figure(b, "F11") }
func BenchmarkF12Reclamation(b *testing.B)   { figure(b, "F12") }
func BenchmarkT1SingleThread(b *testing.B)   { figure(b, "T1") }
func BenchmarkT2Skew(b *testing.B)           { figure(b, "T2") }
func BenchmarkT3Elimination(b *testing.B)    { figure(b, "T3") }
