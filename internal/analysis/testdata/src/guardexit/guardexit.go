// Package guardexit is a golden fixture for the guardexit analyzer:
// every reclaim guard Enter must reach Exit on all paths, and nothing
// may park while a guard is live.
package guardexit

import (
	"sync"

	"github.com/cds-suite/cds/reclaim"
)

func leakOnReturn(dom reclaim.Domain, empty bool) {
	g := dom.NewGuard(0)
	g.Enter()
	if empty {
		return // want "guard g may still be in a section on this return path"
	}
	g.Exit()
}

func receiveWhileLive(dom reclaim.Domain, ch chan int) int {
	g := dom.NewGuard(0)
	g.Enter()
	defer g.Exit()
	return <-ch // want "channel receive may park while guard g is live"
}

func lockWhileLive(dom reclaim.Domain, mu *sync.Mutex) {
	g := dom.NewGuard(0)
	g.Enter()
	mu.Lock() // want "Lock may park while guard g is live"
	mu.Unlock()
	g.Exit()
}

// deferred is clean: the defer covers every return path.
func deferredExit(dom reclaim.Domain, work []int) int {
	g := dom.NewGuard(0)
	g.Enter()
	defer g.Exit()
	sum := 0
	for _, w := range work {
		sum += w
	}
	return sum
}

// exitBothPaths is clean: every path exits explicitly.
func exitBothPaths(dom reclaim.Domain, empty bool) {
	g := dom.NewGuard(0)
	g.Enter()
	if empty {
		g.Exit()
		return
	}
	g.Exit()
}

// receiveAfterExit is clean: the section closes before the park.
func receiveAfterExit(dom reclaim.Domain, ch chan int) int {
	g := dom.NewGuard(0)
	g.Enter()
	g.Exit()
	return <-ch
}

// enter is a producer: returning a live guard hands the section to the
// caller, which is the dual-structure idiom, not a leak.
func enter(dom reclaim.Domain) reclaim.Guard {
	g := dom.NewGuard(0)
	g.Enter()
	return g
}

// release is a releaser: it exits a guard passed in by the caller.
func release(g reclaim.Guard) {
	if g != nil {
		g.Exit()
	}
}

// useProducer is clean: the produced guard is exited locally.
func useProducer(dom reclaim.Domain) {
	g := enter(dom)
	g.Exit()
}

// useReleaser is clean: the helper's summary shows it exits its argument.
func useReleaser(dom reclaim.Domain) {
	g := enter(dom)
	release(g)
}

// forgetProduced leaks a guard obtained through the producer summary.
func forgetProduced(dom reclaim.Domain, empty bool) {
	g := enter(dom)
	if empty {
		return // want "guard g may still be in a section on this return path"
	}
	g.Exit()
}

// The reclaim seam: Pool.Enter opens a section and returns its guard
// (nil for a nil pool), Pool.Exit closes it. Both reach the guard's own
// Enter/Exit through an outlined helper, so the analyzer sees them only
// through transitive producer/releaser summaries.

// seamDeferred is clean: the deferred Exit covers every return path.
func seamDeferred(p *reclaim.Pool, work []int) int {
	g := p.Enter()
	defer p.Exit(g)
	sum := 0
	for _, w := range work {
		sum += w
	}
	return sum
}

func seamMissingExit(p *reclaim.Pool, empty bool) {
	g := p.Enter()
	if empty {
		return // want "guard g may still be in a section on this return path"
	}
	p.Exit(g)
}

func seamParksWhileOpen(p *reclaim.Pool, ch chan int) int {
	g := p.Enter()
	defer p.Exit(g)
	return <-ch // want "channel receive may park while guard g is live"
}

func seamLocksWhileOpen(p *reclaim.Pool, mu *sync.Mutex) {
	g := p.Enter()
	mu.Lock() // want "Lock may park while guard g is live"
	mu.Unlock()
	p.Exit(g)
}

// seamExitBeforePark is clean: the dual structures' shape, which closes
// the section early on the one path that parks and lets a deferred
// closure close it (a no-op on the nil guard) everywhere else.
func seamExitBeforePark(p *reclaim.Pool, ch chan int, wait bool) int {
	g := p.Enter()
	defer func() { p.Exit(g) }()
	if !wait {
		return 0
	}
	p.Exit(g)
	g = nil
	return <-ch
}

// seamReopen is clean: one section per loop iteration, each closed
// before the next opens (the elimination queue's enqueue).
func seamReopen(p *reclaim.Pool, tries int) {
	for i := 0; i < tries; i++ {
		g := p.Enter()
		p.Exit(g)
	}
}

func seamReopenLeaks(p *reclaim.Pool, tries int) {
	var g reclaim.Guard
	for i := 0; i < tries; i++ { // want "guard g re-enters across loop iterations without a matching Exit"
		g = p.Enter()
	}
	p.Exit(g)
}
