package fc_test

import (
	"fmt"
	"sync"

	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/fc"
)

// The combining core under these containers, contend.Combiner, makes any
// sequential structure concurrent: operations are submitted as closures and
// applied in batches by one combiner thread. Results come out through
// captured variables.
func Example_combiner() {
	type scoreboard struct {
		scores map[string]int
	}
	c := contend.NewCombiner(&scoreboard{scores: make(map[string]int)})

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(func(s *scoreboard) { s.scores["total"]++ })
		}()
	}
	wg.Wait()

	var total int
	c.Do(func(s *scoreboard) { total = s.scores["total"] })
	fmt.Println(total)
	// Output: 10
}

// The flat-combining queue behaves like any other cds.Queue.
func ExampleQueue() {
	q := fc.NewQueue[rune]()
	for _, r := range "abc" {
		q.Enqueue(r)
	}
	for {
		r, ok := q.TryDequeue()
		if !ok {
			break
		}
		fmt.Print(string(r))
	}
	fmt.Println()
	// Output: abc
}
