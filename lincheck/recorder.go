package lincheck

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/cds-suite/cds/internal/xrand"
)

// Recorder captures a concurrent history: goroutines bracket each
// operation with Begin/End, and the recorder timestamps both sides with a
// shared logical clock. The clock is a single atomic counter — cheap,
// strictly monotonic, and shared, so the recorded order is exactly the
// real-time order the checker needs. (A contended counter perturbs timing
// slightly, which only makes histories easier to linearize, never harder —
// it cannot mask a real violation that the recorded order exhibits.)
//
// A Recorder may be shared by any number of goroutines.
type Recorder struct {
	clock atomic.Int64
	ops   []clientLog
}

type clientLog struct {
	ops []Operation
	_   [48]byte // keep client logs off each other's cache lines
}

// NewRecorder returns a recorder for the given number of clients
// (goroutines). Each client must use its own ID in [0, clients).
func NewRecorder(clients int) *Recorder {
	return &Recorder{ops: make([]clientLog, clients)}
}

// Begin records the invocation of an operation by the client and returns
// a pending handle to complete with End.
func (r *Recorder) Begin(client int, input any) Pending {
	return Pending{
		r:      r,
		client: client,
		input:  input,
		call:   r.clock.Add(1),
	}
}

// Pending is an in-flight operation started with Begin.
type Pending struct {
	r      *Recorder
	client int
	input  any
	call   int64
}

// End completes the operation with its observed output.
func (p Pending) End(output any) {
	log := &p.r.ops[p.client]
	log.ops = append(log.ops, Operation{
		ClientID: p.client,
		Input:    p.input,
		Output:   output,
		Call:     p.call,
		Return:   p.r.clock.Add(1),
	})
}

// History returns all completed operations.
func (r *Recorder) History() []Operation {
	var all []Operation
	for i := range r.ops {
		all = append(all, r.ops[i].ops...)
	}
	return all
}

// Reset clears the recorded operations (the clock keeps running, which is
// harmless: only relative order matters).
func (r *Recorder) Reset() {
	for i := range r.ops {
		r.ops[i].ops = nil
	}
}

// Stress records rounds small windows under genuine concurrency and checks
// each exhaustively, returning the first counterexample. window builds a
// fresh structure and returns the body each of the clients runs, with a
// per-(round, client) seeded generator. Many small windows keep the
// exponential checker fast while still catching ordering bugs, which
// manifest within tiny neighbourhoods of conflicting operations.
func Stress(model Model, rounds, clients int, window func() func(client int, rng *xrand.Rand, rec *Recorder)) error {
	for round := 0; round < rounds; round++ {
		rec := NewRecorder(clients)
		body := window()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				body(c, xrand.New(uint64(round*clients+c)+1), rec)
			}(c)
		}
		wg.Wait()
		if res := Check(model, rec.History()); !res.Ok {
			return fmt.Errorf("window %d: %s", round, res.Info)
		}
	}
	return nil
}
