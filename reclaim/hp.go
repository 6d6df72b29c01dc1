package reclaim

import (
	"unsafe"

	"github.com/cds-suite/cds/internal/hazard"
)

// HP is the hazard-pointer domain, backed by an internal/hazard.Domain.
// Guards publish each shared pointer in a slot before dereferencing it and
// revalidate the source (the Load helper packages the dance); Retire
// defers the Freer until a scan finds no slot naming the object.
//
// Compared with EBR the per-read cost is higher — a publication store plus
// a revalidating reload on every pointer — but pending garbage stays
// bounded even when readers stall: a stalled guard pins at most its own
// slots' objects, never the whole domain's retire stream.
type HP struct {
	d *hazard.Domain
}

// NewHP returns a fresh hazard-pointer domain.
func NewHP() *HP {
	return &HP{d: hazard.NewDomain()}
}

// SetScanThreshold overrides how many retirements a guard buffers before
// scanning (default 64). Tests use 1-4 to force reclamation inside tiny
// windows. Call before guards retire.
func (h *HP) SetScanThreshold(n int) { h.d.SetScanThreshold(n) }

// HazardDomain exposes the backing hazard domain (monitoring and tests).
func (h *HP) HazardDomain() *hazard.Domain { return h.d }

// NewGuard registers a handle with the given number of hazard slots.
func (h *HP) NewGuard(slots int) Guard {
	if slots < 1 {
		slots = 1
	}
	return &hpGuard{h: h.d.NewHandle(slots), slots: slots}
}

func (h *HP) Reclaimed() int64 { return h.d.Reclaimed() }
func (h *HP) Pending() int64   { return h.d.Pending() }
func (h *HP) Deferred() bool   { return true }
func (h *HP) Name() string     { return "hp" }

type hpGuard struct {
	h     *hazard.Handle
	slots int
}

func (g *hpGuard) Enter() {}

// Exit clears every slot so retired objects this guard was protecting
// become reclaimable by the next scan.
func (g *hpGuard) Exit() {
	for i := 0; i < g.slots; i++ {
		g.h.Slot(i).Clear()
	}
}

func (g *hpGuard) Protect(i int, ptr any) { g.h.Protect(i, ptr) }
func (g *hpGuard) Protects() bool         { return true }

func (g *hpGuard) Retire(ptr, obj unsafe.Pointer, f Freer) { g.h.Retire(ptr, obj, f) }

func (g *hpGuard) Release() { g.h.Release() }
