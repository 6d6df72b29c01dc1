package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// Span names. A span is one call from the benchmark into a layer (or a
// wait between two such calls); the packages themselves are not
// instrumented.
const (
	spRequest uint8 = iota // pipeline root: before the credit Take → credit returned
	spOp                   // root of one traced op on the other workloads
	spTakeCredit
	spPut
	spQueueWait // Put returned → dispatcher's Take returned
	spSubmit
	spSchedWait // Submit returned → handler entered
	spSpawn
	spGetOrLoad
	spLoader // child of spGetOrLoad when this call ran the loader
	spCounterAdd
	spTryEnqueueCredit
	spCacheGet
	spCacheSet
	spCacheDelete
	spMapLoad
	spMapStore
	spMapDelete
	spSkipContains
	spSkipAdd
	spSkipRemove
	spEnqueue
	spDequeue
	spPush
	spPop
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "op", "dual.take(credit)", "dual.put", "dual.queue_wait",
	"pool.submit", "pool.sched_wait", "pool.spawn", "cache.getorload", "loader",
	"counter.add", "dual.tryenqueue(credit)", "cache.get", "cache.set", "cache.delete",
	"cmap.load", "cmap.store", "cmap.delete", "skiplist.contains", "skiplist.add",
	"skiplist.remove", "queue.enqueue", "queue.dequeue", "stack.push", "stack.pop",
}

// A span is {name, start, end, parent, request id}. id and parent are
// buffer<<spanSeqBits | position, so every goroutine numbers its own
// spans without sharing a counter; parent 0 marks a root.
type span struct {
	start, end int64 // ns since the process started
	id, parent uint32
	req        uint32
	name       uint8
}

const (
	spanSeqBits = 26
	// spanBufCap bounds one goroutine's spans (32 B each). A trial that
	// fills a buffer stops starting new traces; the means then come from
	// the part of the trial before that.
	spanBufCap = 1 << 19
	// spansWritten bounds the span file; the per-layer numbers use
	// every span in memory.
	spansWritten = 1 << 16
)

// spanBuf is one goroutine's pre-allocated span storage. Only its owner
// appends.
type spanBuf struct {
	spans []span
	base  uint32
	full  *atomic.Bool
}

// tracer owns the span buffers of one traced trial.
type tracer struct {
	bufs []*spanBuf
	full atomic.Bool
}

func newTracer(goroutines int) *tracer {
	t := &tracer{}
	for i := 0; i < goroutines; i++ {
		t.bufs = append(t.bufs, &spanBuf{
			spans: make([]span, 0, spanBufCap),
			base:  uint32(i+1) << spanSeqBits,
			full:  &t.full,
		})
	}
	return t
}

// buf returns goroutine i's buffer, or nil on an untraced trial.
func (t *tracer) buf(i int) *spanBuf {
	if t == nil {
		return nil
	}
	return t.bufs[i]
}

// room reports whether a new trace may start: no buffer of the trial has
// come within spanMargin of its capacity. The margin holds the traces in
// flight.
func (b *spanBuf) room() bool { return !b.full.Load() }

const spanMargin = 4096

// add appends a span and returns its id. A buffer that is full drops
// the span; room() has turned false long before.
func (b *spanBuf) add(name uint8, parent, req uint32, start, end int64) uint32 {
	n := len(b.spans)
	if n == spanBufCap {
		return 0
	}
	if n == spanBufCap-spanMargin {
		b.full.Store(true)
	}
	id := b.base | uint32(n)
	b.spans = append(b.spans, span{start: start, end: end, id: id, parent: parent, req: req, name: name})
	return id
}

// rootSpan marks the id of a pipeline request's root span, which the
// client chooses (rootSpan | request id) so that spans on other
// goroutines can name their parent before the root itself is recorded,
// by whichever worker finishes the request. Buffer ids never have this
// bit: there are fewer than 31 buffers.
const rootSpan = 1 << 31

func (b *spanBuf) addRoot(id, req uint32, start, end int64) {
	if len(b.spans) < spanBufCap {
		b.spans = append(b.spans, span{start: start, end: end, id: id, req: req, name: spRequest})
	}
}

// nextID is the id the next add will return.
func (b *spanBuf) nextID() uint32 { return b.base | uint32(len(b.spans)) }

// begin and finish bracket one call into a layer. Both do nothing on a
// nil buffer, which is what an untraced op passes.
func (b *spanBuf) begin() int64 {
	if b == nil {
		return 0
	}
	return now()
}

func (b *spanBuf) finish(name uint8, parent, req uint32, start int64) {
	if b != nil {
		b.add(name, parent, req, start, now())
	}
}

// setEnd closes a span that was added before its children.
func (b *spanBuf) setEnd(id uint32, end int64) {
	if b != nil && id != 0 {
		b.spans[id&(1<<spanSeqBits-1)].end = end
	}
}

// spanAgg is what the trace says about one span name.
type spanAgg struct {
	count   uint64
	sum     int64 // total duration
	selfSum int64 // total duration not covered by child spans
}

func (a spanAgg) mean() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.count)
}

func (a spanAgg) selfMean() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.selfSum) / float64(a.count)
}

// traceSummary is the per-name aggregate of a traced trial, with
// cache.getorload split by whether the call ran the loader.
type traceSummary struct {
	byName        [numSpanNames]spanAgg
	getOrLoadHit  spanAgg
	getOrLoadMiss spanAgg
}

// all gathers the trial's spans, ordered by request and start time.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].req != out[j].req {
			return out[i].req < out[j].req
		}
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].id < out[j].id
	})
	return out
}

// fixWaits gives the two wait spans their start. A wait runs from the
// return of a call on one goroutine to an event on another, and the
// second goroutine cannot read the first one's clock without a race,
// so it records only the event; the start comes from the sibling span
// here. A wait whose event came first (the consumer was faster than the
// producer's return) has length zero.
func fixWaits(spans []span) {
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].req == spans[lo].req {
			hi++
		}
		var putEnd, submitEnd int64 = -1, -1
		for _, s := range spans[lo:hi] {
			switch s.name {
			case spPut:
				putEnd = s.end
			case spSubmit:
				submitEnd = s.end
			}
		}
		for i := lo; i < hi; i++ {
			s := &spans[i]
			switch {
			case s.name == spQueueWait && putEnd >= 0:
				s.start = min(putEnd, s.end)
			case s.name == spSchedWait && submitEnd >= 0:
				s.start = min(submitEnd, s.end)
			}
		}
		lo = hi
	}
}

// summarize computes, per span name, count, total time and self time:
// a span's duration minus the part of it its children cover.
func summarize(spans []span) *traceSummary {
	sum := &traceSummary{}
	children := make(map[uint32][]int)
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for _, s := range spans {
		dur := s.end - s.start
		self := dur - covered(s, spans, children[s.id])
		a := &sum.byName[s.name]
		a.count++
		a.sum += dur
		a.selfSum += self
		if s.name == spGetOrLoad {
			a = &sum.getOrLoadHit
			if self != dur {
				a = &sum.getOrLoadMiss
			}
			a.count++
			a.sum += dur
			a.selfSum += self
		}
	}
	return sum
}

// covered returns how much of parent's interval the kids cover, with
// overlapping kids counted once.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].start < spans[kids[j]].start })
	var total int64
	edge := parent.start
	for _, k := range kids {
		lo, hi := max(spans[k].start, edge), min(spans[k].end, parent.end)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// writeSpans writes the first spansWritten spans as one JSON document.
func writeSpans(path, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	n := min(len(spans), spansWritten)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns since process start\",\"spans_recorded\":%d,\"spans_written\":%d,\"spans\":[\n",
		workload, seed, len(spans), n)
	for i, s := range spans[:n] {
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"id\":%d,\"parent\":%d,\"req\":%d,\"start\":%d,\"end\":%d}%s\n",
			spanNames[s.name], s.id, s.parent, s.req, s.start, s.end, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close span file: %w", err)
	}
	return nil
}
