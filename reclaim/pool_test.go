package reclaim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/cds-suite/cds/internal/pad"
	"github.com/cds-suite/cds/internal/testprocs"
)

// deferring lists the domains a Pool exists for; the pool tests run over
// both, with the backend defaults the structures get.
var deferring = []struct {
	name string
	mk   func() Domain
}{
	{"ebr", func() Domain { return NewEBR() }},
	{"hp", func() Domain { return NewHP() }},
}

// TestSlotLayout pins the ring element's layout, as internal/pad's tests
// pin the pad: a slot that is not a whole number of lines straddles two,
// so every checkout would touch a neighbour's line, and only benchmark
// numbers would notice.
func TestSlotLayout(t *testing.T) {
	var s pslot
	if got := unsafe.Sizeof(s); got != pad.CacheLineSize {
		t.Fatalf("Sizeof(pslot) = %d, want one %d-byte cache line", got, pad.CacheLineSize)
	}
	if off := unsafe.Offsetof(s.mu); off != 0 {
		t.Fatalf("pslot.mu at offset %d, want 0 (hot words first)", off)
	}
	if end := unsafe.Offsetof(s.g) + unsafe.Sizeof(s.g); end > pad.CacheLineSize/2 {
		t.Fatalf("pslot's hot words end at byte %d, want them packed at the front of the line", end)
	}
	// The ring itself must start on a line for the element size to mean
	// anything. NewPool's rings are power-of-two multiples of 256 bytes on
	// the heap, where the allocator's size classes align them to their
	// size.
	ring := NewPool(NewEBR(), 1).cache
	if a := uintptr(unsafe.Pointer(&ring[0])); a%pad.CacheLineSize != 0 {
		t.Fatalf("ring of %d slots starts at %#x, not on a cache line", len(ring), a)
	}
}

// countingDomain counts the guards a pool registers.
type countingDomain struct {
	Domain
	guards atomic.Int64
}

func (d *countingDomain) NewGuard(slots int) Guard {
	d.guards.Add(1)
	return d.Domain.NewGuard(slots)
}

// deepFrame is the size of deepSection's live frame: well over the 3 KiB
// that separate a shallow call path from a deep one in the structures
// (cmap.Load against skiplist.Remove → find), and enough to make the
// goroutine's stack at least one home granule.
const deepFrame = 5 << 10

// deepSection runs one section from the far side of a deepFrame-byte
// frame that is live across Enter and Exit.
//
//go:noinline
func deepSection(p *Pool, i int) byte {
	var frame [deepFrame]byte
	frame[i%deepFrame] = 1
	g := p.Enter()
	p.Exit(g)
	return frame[(i+1)%deepFrame]
}

// deepHome reports the home slot as seen from the far side of the same
// frame (and, called first, grows the goroutine's stack to fit it).
//
//go:noinline
func deepHome(p *Pool, i int) (int, byte) {
	var frame [deepFrame]byte
	frame[i%deepFrame] = 1
	return p.home(), frame[(i+1)%deepFrame]
}

// TestEnterIsGoroutineAffine pins the property the ring's speed rests on:
// a goroutine's home slot does not move with its call depth, so a worker
// that alternates shallow and deep call paths finds its own guard at the
// first probe every time. (At a 512-byte granule, 55 % of such checkouts
// missed, each taking a slot — often a guard — that belonged to another
// goroutine.)
//
// Two goroutines whose stacks hash alike still collide; that is the
// documented cold path, not the property, so the test draws goroutines
// until it holds G with distinct homes and leaves the rest blocked (a
// candidate that exited would hand its stack, and its home, to the next).
func TestEnterIsGoroutineAffine(t *testing.T) {
	testprocs.AtLeast(t, 2)
	const sections = 300_000
	for _, dom := range deferring {
		for _, G := range []int{2, 4} {
			cd := &countingDomain{Domain: dom.mk()}
			p := NewPool(cd, 1)

			var (
				wg    sync.WaitGroup
				start = make(chan struct{}) // the barrier: closed once G workers are held
				done  = make(chan struct{}) // releases the rejected candidates
				homes = make(chan int)
				role  = make(chan bool) // coordinator's verdict for the candidate that just reported
			)
			candidate := func() {
				defer wg.Done()
				deep, _ := deepHome(p, 0)
				if shallow := p.home(); shallow != deep {
					t.Errorf("%s: home moved with call depth: slot %d shallow, %d below a %d-byte frame", dom.name, shallow, deep, deepFrame)
				}
				homes <- deep
				if !<-role {
					<-done
					return
				}
				<-start
				var sink byte
				for i := 0; i < sections; i++ {
					if i&1 == 0 {
						g := p.Enter()
						p.Exit(g)
					} else {
						sink += deepSection(p, i)
					}
				}
				runtime.KeepAlive(sink)
			}
			taken := make(map[int]bool)
			for tries := 0; len(taken) < G; tries++ {
				if tries == 16*len(p.cache) {
					close(done)
					close(start)
					t.Fatalf("%s: %d goroutines drawn, homes %v: cannot find %d distinct homes in a ring of %d", dom.name, tries, taken, G, len(p.cache))
				}
				wg.Add(1)
				go candidate()
				h := <-homes
				role <- !taken[h]
				taken[h] = true
			}
			close(start)
			close(done)
			wg.Wait()

			total := int64(G * sections)
			if miss := p.homeMiss.Load(); miss > total/100 {
				t.Errorf("%s G=%d: %d of %d sections missed their home slot (%.1f %%), want <= 1 %%",
					dom.name, G, miss, total, 100*float64(miss)/float64(total))
			}
			if n := cd.guards.Load(); n > int64(len(p.cache)) {
				t.Errorf("%s G=%d: %d guards registered, want <= ring size %d", dom.name, G, n, len(p.cache))
			}
		}
	}
}

// unrecycled is a retired object nobody pools. It holds a pointer so the
// allocator does not pack it into a shared tiny block, which would keep
// its finalizer from running.
type unrecycled struct {
	next *unrecycled
	_    [3]uintptr
}

// TestParkedGuardDoesNotPinDroppedObjects is the regression test for the
// retention trap of the record form: a retirement that stored the object's
// address would keep every unrecycled node alive until its bag drains —
// for a parked guard that is never reused, forever — and, through the
// node's stale successor pointers, every node retired after it (a run of
// the skip list under such records held 24–30 MB live against 4).
func TestParkedGuardDoesNotPinDroppedObjects(t *testing.T) {
	const n = 10_000
	d := NewEBR()
	pool := NewPool(d, 1)
	var collected atomic.Int64

	// One section for the whole burst: its own pin stops the epoch after
	// one advance, so nothing is reclaimed and the guard parks with every
	// retirement still in its bags.
	g := pool.Enter()
	for i := 0; i < n; i++ {
		obj := new(unrecycled)
		runtime.SetFinalizer(obj, func(*unrecycled) { collected.Add(1) })
		Retire(g, nil, obj)
	}
	pool.Exit(g)

	// Two collections queue the finalizer of every unreachable object; the
	// wait is only for the finalizer goroutine to get through the queue.
	// No amount of waiting rescues an object that is still referenced.
	runtime.GC()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); collected.Load() < n*99/100 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got < n*99/100 {
		t.Errorf("%d of %d retired, unrecycled objects collected while their guard is parked, want >= 99 %%", got, n)
	}
	if got := d.Pending(); got != n {
		t.Errorf("Pending = %d, want all %d retirements still counted", got, n)
	}
	if got := d.Reclaimed(); got != 0 {
		t.Errorf("Reclaimed = %d, want 0: the test means to observe retirements that are still waiting", got)
	}
}
