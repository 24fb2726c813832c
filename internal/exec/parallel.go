package exec

import (
	"cmp"
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xst/internal/table"
	"xst/internal/trace"
)

// workerSpan opens a per-worker trace span ("<phase>[i]") under the
// context's active span — nil (free) when the query is untraced. The
// names mirror the exchange vocabulary: gather workers, build workers,
// aggregation partials.
func workerSpan(ctx context.Context, phase string, i int) *trace.Span {
	sp := trace.SpanOf(ctx)
	if sp == nil {
		return nil
	}
	return sp.Start(phase + "[" + strconv.Itoa(i) + "]")
}

// The exchange: the paper's §12 claim that whole sets can be
// "physically partitioned and every partition processed as a set, in
// parallel" as a property of the operator tree itself. A table's pages
// are dealt to N identical worker subtrees (MorselScan leaves and what
// the planner stacks on them); the operators that take several workers
// — Gather, HashBuild, ParallelGroupAgg — drain them through drainAll,
// one goroutine each, and a Gather funnels their batches back into the
// pull contract, copying each before it crosses the channel (a worker's
// batch is scratch until its next Next, which on another goroutine can
// be any moment after the send; see DESIGN.md §9).

// Gather funnels N worker subtrees back into the pull contract: Open
// spawns one goroutine per worker, each draining its subtree into a
// bounded channel; Next receives. The contract:
//
//   - bounded: the channel holds at most one batch per worker, so rows
//     in flight stay O(workers × MaxBatchRows) — HeldRows reports the
//     observed peak;
//   - first-error-wins: the first worker error (or context cancellation)
//     cancels a derived context that every worker polls, and Next
//     returns that error once the channel drains;
//   - prompt shutdown: Close cancels, drains, and joins every worker
//     goroutine before returning, so no goroutine outlives the tree;
//   - ownership: every batch is copied before it crosses the channel,
//     so what Next returns no worker touches; it is scratch until the
//     next Next, which puts it back on the free list of batches the
//     producers copy into, so batches are recycled rather than allocated
//     per batch.
//
// aux operators are shared dependencies of the workers (e.g. the
// HashBuild that ProbeJoin workers probe): Open opens them in order,
// under the derived context, before any worker starts.
type Gather struct {
	fanIn

	parent   context.Context
	ctx      context.Context
	cancel   context.CancelFunc
	ch       chan *table.Batch
	last     *table.Batch // the batch Next handed out last
	firstErr error
	inFlight atomic.Int64
	peak     atomic.Int64
	stats    OpStats
	open     bool
	done     bool
}

// NewGather exchanges the outputs of workers, opening the shared aux
// operators first.
func NewGather(workers []Operator, aux ...Operator) *Gather {
	if len(workers) == 0 {
		panic("exec: Gather needs at least one worker")
	}
	return &Gather{fanIn: newFanIn(workers, aux)}
}

// Open implements Operator: opens aux dependencies, then drains the
// workers, one producer goroutine each (drainAll), under a closer that
// seals the channel when all producers exit.
func (g *Gather) Open(ctx context.Context) error {
	g.stats = OpStats{}
	defer g.stats.timed(time.Now())
	g.open = true
	g.done = false
	g.firstErr = nil
	g.inFlight.Store(0)
	g.peak.Store(0)
	g.parent = ctx
	g.ctx, g.cancel = context.WithCancel(ctx)
	if err := g.openAux(g.ctx); err != nil {
		return err
	}
	g.ch = make(chan *table.Batch, g.Workers())
	go func() {
		// The workers run under g.ctx, so Close's cancel reaches a worker
		// blocked inside its own Next. close(ch) orders the firstErr
		// write before Next reads it.
		g.firstErr = drainAll(g.ctx, "worker", g.workers(), g)
		close(g.ch)
	}()
	return nil
}

// take implements sink: it copies one worker batch into a batch off
// the free list and sends it across the exchange.
func (g *Gather) take(_ int, b *table.Batch) error {
	// Poll the caller's context, not just the derived one: the derived
	// context only observes cancellation that has already propagated,
	// while deadline/countdown contexts cancel inside their own Err
	// method — the per-batch poll the Operator contract promises.
	if err := g.parent.Err(); err != nil {
		return err
	}
	batch := getBatch()
	batch.AppendSel(b, nil)
	n := g.inFlight.Add(int64(batch.Len))
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	select {
	case g.ch <- batch:
		return nil
	case <-g.ctx.Done():
		g.inFlight.Add(-int64(batch.Len))
		putBatch(batch)
		return g.ctx.Err()
	}
}

// Next implements Operator: receives the next worker batch. Order
// across workers is arbitrary; order within one worker is preserved.
func (g *Gather) Next() (*table.Batch, error) {
	defer g.stats.timed(time.Now())
	if !g.open {
		return nil, errOpen(g)
	}
	putBatch(g.last)
	g.last = nil
	if g.done {
		return nil, g.firstErr
	}
	b, ok := <-g.ch
	if !ok {
		// Channel closed after every producer exited: the closer's
		// close(ch) orders their g.firstErr writes before this read.
		g.done = true
		return nil, g.firstErr
	}
	g.inFlight.Add(-int64(b.Len))
	g.stats.RowsIn += b.Len
	g.stats.emitted(b)
	g.last = b
	return b, nil
}

// Close implements Operator: cancels workers, drains the channel until
// the closer seals it (joining every producer goroutine), then closes
// the worker and aux subtrees.
func (g *Gather) Close() error {
	g.open = false
	if g.cancel != nil {
		g.cancel()
	}
	if g.ch != nil {
		for b := range g.ch {
			putBatch(b)
		}
		g.ch = nil
	}
	putBatch(g.last)
	g.last = nil
	return g.closeAll()
}

// Stats implements Operator. HeldRows is the peak number of rows in
// flight inside the exchange (queued plus being sent).
func (g *Gather) Stats() OpStats {
	st := g.stats
	st.HeldRows = int(g.peak.Load())
	return st
}

func (g *Gather) String() string { return fmt.Sprintf("gather[%d]", g.Workers()) }

// fanIn is the inputs of an operator that drains several workers: the
// workers, and the shared operators they depend on (e.g. the HashBuild
// that ProbeJoin workers probe), which it opens first, in order.
type fanIn struct {
	ops  []Operator // the aux operators, then the workers
	naux int
}

// newFanIn lists aux before workers.
func newFanIn(workers, aux []Operator) fanIn {
	if len(aux) == 0 {
		return fanIn{ops: workers}
	}
	return fanIn{ops: append(aux[:len(aux):len(aux)], workers...), naux: len(aux)}
}

// workers returns the worker subtrees.
func (f *fanIn) workers() []Operator { return f.ops[f.naux:] }

// Workers returns the fan-out width.
func (f *fanIn) Workers() int { return len(f.ops) - f.naux }

// OutSchema implements Operator: the workers' schema.
func (f *fanIn) OutSchema() table.Schema { return f.ops[f.naux].OutSchema() }

// Children implements Operator: shared aux first, then the workers.
func (f *fanIn) Children() []Operator { return f.ops }

// openAux opens the aux operators in order.
func (f *fanIn) openAux(ctx context.Context) error {
	for _, a := range f.ops[:f.naux] {
		if err := a.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

// closeAll closes the workers, then the aux operators, returning the
// first error.
func (f *fanIn) closeAll() error { return cmp.Or(closeOps(f.workers()), closeOps(f.ops[:f.naux])) }

// closeOps closes every op, returning the first error.
func closeOps(ops []Operator) error {
	var first error
	for _, op := range ops {
		if err := op.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sink takes the batches drainAll's ops produce: batch b of op i,
// scratch until take returns. Ops on goroutines of their own call it
// concurrently.
type sink interface {
	take(i int, b *table.Batch) error
}

// sinkFunc is a func as a sink.
type sinkFunc func(i int, b *table.Batch) error

func (f sinkFunc) take(i int, b *table.Batch) error { return f(i, b) }

// drainAll drains every op, handing op i's batches to to.take(i, b),
// and returns once all are done. One op runs on the caller's goroutine
// under ctx, as a serial operator drains its input. Several run on a
// goroutine each, under a context derived from ctx, and poll both per
// batch (deadline and countdown contexts cancel inside Err, which the
// derived context never calls). First-error-wins: the first error — an
// op's, take's or a context's — cancels the others and is the one
// returned, not a sibling's resulting context.Canceled. phase names the
// per-worker trace spans.
func drainAll(ctx context.Context, phase string, ops []Operator, to sink) error {
	if len(ops) == 1 {
		return cmp.Or(drain(ctx, ctx, nil, 0, ops[0], to), ctx.Err())
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var once sync.Once
	var firstErr error
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func(i int, op Operator) {
			defer wg.Done()
			sp := workerSpan(ctx, phase, i)
			defer sp.End()
			if err := drain(wctx, ctx, sp, i, op, to); err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(i, op)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// drain opens op under wctx and hands its batches to to.take(i, b)
// until it is exhausted, polling wctx and ctx per batch and counting the
// batches on sp.
func drain(wctx, ctx context.Context, sp *trace.Span, i int, op Operator, to sink) error {
	err := op.Open(wctx)
	for err == nil {
		var b *table.Batch
		if b, err = op.Next(); err != nil || b == nil {
			break
		}
		if err = cmp.Or(wctx.Err(), ctx.Err()); err == nil {
			sp.AddRows(b.Len)
			sp.AddBatches(1)
			err = to.take(i, b)
		}
	}
	return err
}
