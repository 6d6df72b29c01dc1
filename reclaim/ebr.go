package reclaim

import (
	"unsafe"

	"github.com/cds-suite/cds/internal/epoch"
)

// EBR is the epoch-based reclamation domain, backed by an
// internal/epoch.Collector. Guards pin the global epoch for the duration
// of Enter/Exit sections; Retire defers the Freer until the epoch has
// advanced twice past the retirement epoch, at which point no pinned
// reader can still hold a reference.
//
// EBR's weakness is liveness, not safety: one guard stalled inside a
// section halts epoch advancement and lets pending garbage grow without
// bound across the whole domain (the S14 stalled-reader scenario measures
// exactly this).
type EBR struct {
	c *epoch.Collector
}

// NewEBR returns a fresh epoch-based reclamation domain.
func NewEBR() *EBR {
	return &EBR{c: epoch.NewCollector()}
}

// SetAdvanceInterval overrides how many retirements a guard buffers
// between epoch-advance attempts (default 64). Lower values reclaim more
// eagerly at the cost of more frequent participant scans; tests use 1-4
// to force reclamation inside tiny windows. Call before guards retire.
func (e *EBR) SetAdvanceInterval(n uint64) { e.c.SetAdvanceInterval(n) }

// Collector exposes the backing epoch collector (monitoring and tests).
func (e *EBR) Collector() *epoch.Collector { return e.c }

// NewGuard registers a participant. slots is ignored: EBR protects whole
// sections, not individual pointers.
func (e *EBR) NewGuard(int) Guard {
	return &ebrGuard{c: e.c, p: e.c.Register()}
}

func (e *EBR) Reclaimed() int64 { return e.c.Reclaimed() }
func (e *EBR) Pending() int64   { return e.c.Pending() }
func (e *EBR) Deferred() bool   { return true }
func (e *EBR) Name() string     { return "ebr" }

type ebrGuard struct {
	c *epoch.Collector
	p *epoch.Participant
}

func (g *ebrGuard) Enter()           { g.p.Pin() }
func (g *ebrGuard) Exit()            { g.p.Unpin() }
func (g *ebrGuard) Protect(int, any) {}
func (g *ebrGuard) Protects() bool   { return false }

// Retire keeps {obj, f} and forgets ptr: epochs protect sections, not
// addresses.
func (g *ebrGuard) Retire(_, obj unsafe.Pointer, f Freer) { g.p.Retire(obj, f) }

func (g *ebrGuard) Release() { g.c.Unregister(g.p) }
