package park

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPermitUnparkBeforePark(t *testing.T) {
	p := New()
	p.Unpark()
	if err := p.Park(context.Background()); err != nil {
		t.Fatalf("Park after Unpark: %v", err)
	}
}

func TestPermitUnparkCoalesces(t *testing.T) {
	p := New()
	p.Unpark()
	p.Unpark()
	if !p.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if p.TryAcquire() {
		t.Fatal("double Unpark deposited two tokens")
	}
}

func TestPermitParkBlocksUntilUnpark(t *testing.T) {
	p := New()
	done := make(chan error, 1)
	go func() { done <- p.Park(context.Background()) }()
	select {
	case <-done:
		t.Fatal("Park returned without a token")
	case <-time.After(10 * time.Millisecond):
	}
	p.Unpark()
	if err := <-done; err != nil {
		t.Fatalf("Park: %v", err)
	}
}

func TestPermitParkCancellation(t *testing.T) {
	p := New()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Park(ctx) }()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Park under cancellation: %v", err)
	}
	// A late Unpark must remain visible to TryAcquire (the lost-wakeup
	// forwarding protocol depends on it).
	p.Unpark()
	if !p.TryAcquire() {
		t.Fatal("token deposited after cancelled Park was lost")
	}
}

func TestLotFIFOWakeup(t *testing.T) {
	var l Lot
	a, b, c := New(), New(), New()
	l.Enroll(a)
	l.Enroll(b)
	l.Enroll(c)
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	l.WakeOne()
	if !a.TryAcquire() || b.TryAcquire() {
		t.Fatal("WakeOne did not wake the oldest waiter")
	}
	l.WakeAll()
	if !b.TryAcquire() || !c.TryAcquire() {
		t.Fatal("WakeAll missed a waiter")
	}
	if l.Len() != 0 {
		t.Fatalf("Len after WakeAll = %d, want 0", l.Len())
	}
}

func TestLotWithdraw(t *testing.T) {
	var l Lot
	a, b := New(), New()
	l.Enroll(a)
	l.Enroll(b)
	if !l.Withdraw(a) {
		t.Fatal("Withdraw of enrolled waiter reported false")
	}
	if l.Withdraw(a) {
		t.Fatal("second Withdraw reported true")
	}
	l.WakeOne()
	if a.TryAcquire() {
		t.Fatal("withdrawn waiter received a wakeup")
	}
	if !b.TryAcquire() {
		t.Fatal("remaining waiter missed the wakeup")
	}
}

// TestLotNoLostWakeupUnderChurn drives the enrol/re-check/park/cancel
// protocol from many goroutines against a token bucket: every deposited
// token must be consumed even when waiters cancel concurrently with
// wakers (the Withdraw-false ⇒ forward rule). Each worker consumes
// exactly its share; the odd ones wait under deadlines short enough to
// expire mid-park and retry, the even ones wait without one. A lost
// wakeup leaves a token in the bucket and, once no impatient worker is
// left to stumble on it, a patient one parked for good: the oracle is
// that every worker returns with the bucket empty, and `go test`'s
// timeout is the hang detector — no wall-clock deadline stands in for
// the property, so a slow box cannot fail it.
func TestLotNoLostWakeupUnderChurn(t *testing.T) {
	var l Lot
	var bucket atomic.Int64
	const (
		workers = 8
		rounds  = 200
	)
	take := func(ctx context.Context) bool {
		for {
			if n := bucket.Load(); n > 0 && bucket.CompareAndSwap(n, n-1) {
				return true
			}
			p := New()
			l.Enroll(p)
			if n := bucket.Load(); n > 0 && bucket.CompareAndSwap(n, n-1) {
				if !l.Withdraw(p) {
					l.WakeOne() // consumed an item and a wakeup: pass it on
				}
				return true
			}
			err := p.Park(ctx)
			if removed := l.Withdraw(p); err != nil {
				if !removed {
					l.WakeOne() // our wakeup is in flight: forward it
				}
				return false
			}
		}
	}
	var wg sync.WaitGroup
	var cancelled atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			attempt := func(r int) bool {
				if w%2 == 0 {
					return take(context.Background())
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+r%8)*5*time.Microsecond)
				defer cancel()
				return take(ctx)
			}
			for r := 0; r < rounds; {
				if attempt(r) {
					r++
				} else {
					cancelled.Add(1)
				}
			}
		}()
	}
	const tokens = workers * rounds
	for i := 0; i < tokens; i++ {
		bucket.Add(1)
		l.WakeOne()
		// Deposit in small bursts and let each drain, so that workers
		// keep parking — and the short deadlines keep expiring — between
		// bursts instead of everything resolving on the fast path.
		for i%4 == 3 && bucket.Load() > 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if n := bucket.Load(); n != 0 {
		t.Fatalf("%d of %d tokens left in the bucket after every worker took its share", n, tokens)
	}
	t.Logf("%d waits cancelled mid-protocol", cancelled.Load())
}

// TestLotReleasesPoppedPermits is the regression test for the stale-slot
// leak: WakeOne's reslice and Withdraw's shift used to leave references to
// popped permits in the backing array, pinning dead waiters for the
// lifetime of a long-lived Lot (exactly what a pool's idle set is). After
// any pop, the backing array outside the live window must hold no popped
// permit.
func TestLotReleasesPoppedPermits(t *testing.T) {
	var l Lot
	ps := make([]*Permit, 6)
	for i := range ps {
		ps[i] = New()
		l.Enroll(ps[i])
	}
	// Capture the backing array while the slice header still starts at
	// slot 0, so the popped prefix stays inspectable after reslicing.
	backing := l.ws[:cap(l.ws)]

	if !l.Withdraw(ps[2]) {
		t.Fatal("Withdraw(ps[2]) = false, want true")
	}
	for i := 0; i < 2; i++ {
		if !l.WakeOne() {
			t.Fatalf("WakeOne %d found no waiter", i)
		}
	}
	// Live set is now [ps[3], ps[4], ps[5]], shifted within backing.
	if got := l.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}

	live := make(map[*Permit]bool)
	l.mu.Lock()
	for _, p := range l.ws {
		live[p] = true
	}
	l.mu.Unlock()
	for i, p := range backing {
		if p == nil || live[p] {
			continue
		}
		t.Fatalf("backing slot %d still references popped permit %p", i, p)
	}
}
