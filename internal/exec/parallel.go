package exec

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xst/internal/core"
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

// Parallel (exchange-style) operators: the paper's §12 claim that whole
// sets can be "physically partitioned and every partition processed as
// a set, in parallel" as a property of the operator tree itself.
//
// The shape is morsel-driven: a table's heap pages are dealt out of a
// shared table.MorselSource to N identical worker subtrees (MorselScan
// leaves plus whatever per-worker operators the planner stacks on
// them), and a Gather at the pipeline break funnels worker batches back
// into the single-goroutine pull contract. Blocking operators
// parallelize their own sanctioned materializations: HashBuild builds a
// partitioned hash index from N build workers, ProbeJoin probes it from
// N probe workers, and ParallelGroupAgg folds per-worker AggState
// accumulators with a merge stage.
//
// Batch ownership across goroutines (see DESIGN.md §9) is the package's
// one rule applied at the exchange: a worker's batch is scratch until
// that worker's next Next, which on another goroutine can be any moment
// after the send. So Gather takes every batch through keep before it
// crosses the channel, and what arrives belongs to Gather's consumer.

// MorselScan is one parallel-scan worker: it claims heap pages (morsels)
// from a shared table.MorselSource and emits each page's rows as
// batches. N MorselScans over one source partition the table
// dynamically — fast workers claim more pages. Each worker decodes into
// its own table.PageBatch, so its batches are scratch until its next
// Next and an exchange above it copies them; positions outside need are
// nil (see NewScan).
type MorselScan struct {
	src   *table.MorselSource
	need  []bool
	batch table.PageBatch
	ctx   context.Context
	pend  []table.Row
	stats OpStats
	open  bool
}

// NewMorselScan returns a scan worker pulling from src, decoding the
// positions need marks (nil: all).
func NewMorselScan(src *table.MorselSource, need []bool) *MorselScan {
	return &MorselScan{src: src, need: need}
}

// Open implements Operator. Bind pins the shared source to the
// context's snapshot view (first worker wins; the others adopt its
// epoch-consistent page list), so all N workers scan one snapshot.
func (s *MorselScan) Open(ctx context.Context) error {
	s.stats = OpStats{}
	defer s.stats.timed(time.Now())
	s.ctx = ctx
	s.src.Bind(ctx)
	s.pend = nil
	s.open = true
	return ctx.Err()
}

// Next implements Operator: one claimed page per refill, polled against
// the context so a deadline aborts between morsels.
func (s *MorselScan) Next() ([]table.Row, error) {
	defer s.stats.timed(time.Now())
	if !s.open {
		return nil, errOpen(s)
	}
	for {
		if len(s.pend) > 0 {
			n := min(len(s.pend), MaxBatchRows)
			out := s.pend[:n]
			s.pend = s.pend[n:]
			s.stats.emitted(out)
			return out, nil
		}
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		id, ok := s.src.Next()
		if !ok {
			return nil, nil
		}
		rows, err := s.src.Table().ReadPage(id, &s.batch, s.need)
		if err != nil {
			return nil, err
		}
		s.stats.RowsIn += len(rows)
		s.pend = rows
	}
}

// Close implements Operator.
func (s *MorselScan) Close() error {
	s.open = false
	s.pend = nil
	return nil
}

// OutSchema implements Operator.
func (s *MorselScan) OutSchema() table.Schema { return s.src.Table().Schema() }

// Stats implements Operator.
func (s *MorselScan) Stats() OpStats { return s.stats }

// Children implements Operator.
func (s *MorselScan) Children() []Operator { return nil }

func (s *MorselScan) String() string { return "morselscan(" + s.src.Table().Schema().Name + ")" }

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
//   - ownership: every batch is taken through keep before it crosses
//     the channel, so what Next returns is a fresh batch Gather never
//     touches again — Gather is itself a Retainer, and a Sort or
//     Collect above it does not copy a second time.
//
// aux operators are shared dependencies of the workers (e.g. the
// HashBuild that ProbeJoin workers probe): Open opens them in order,
// under the derived context, before any worker starts.
type Gather struct {
	workers []Operator
	aux     []Operator

	parent   context.Context
	ctx      context.Context
	cancel   context.CancelFunc
	ch       chan []table.Row
	wg       sync.WaitGroup
	errOnce  sync.Once
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
	return &Gather{workers: workers, aux: aux}
}

// Open implements Operator: opens aux dependencies, then starts one
// producer goroutine per worker plus a closer that seals the channel
// when all producers exit.
func (g *Gather) Open(ctx context.Context) error {
	g.stats = OpStats{}
	defer g.stats.timed(time.Now())
	g.open = true
	g.done = false
	g.firstErr = nil
	g.errOnce = sync.Once{}
	g.inFlight.Store(0)
	g.peak.Store(0)
	g.parent = ctx
	g.ctx, g.cancel = context.WithCancel(ctx)
	for _, a := range g.aux {
		if err := a.Open(g.ctx); err != nil {
			return err
		}
	}
	g.ch = make(chan []table.Row, len(g.workers))
	for i, w := range g.workers {
		g.wg.Add(1)
		go func(i int, w Operator) {
			defer g.wg.Done()
			g.produce(i, w)
		}(i, w)
	}
	go func() {
		g.wg.Wait()
		close(g.ch)
	}()
	return nil
}

// produce drains one worker subtree into the exchange channel.
func (g *Gather) produce(i int, w Operator) {
	wsp := workerSpan(g.parent, "worker", i)
	defer wsp.End()
	if err := w.Open(g.ctx); err != nil {
		g.fail(err)
		return
	}
	for {
		// Poll the caller's context, not just the derived one: the
		// derived context only observes cancellation that has already
		// propagated, while deadline/countdown contexts cancel inside
		// their own Err method — the per-batch poll the Operator
		// contract promises.
		if err := g.parent.Err(); err != nil {
			g.fail(err)
			return
		}
		rows, err := w.Next()
		if err != nil {
			g.fail(err)
			return
		}
		if rows == nil {
			return
		}
		wsp.AddRows(len(rows))
		wsp.AddBatches(1)
		batch := keep(w, rows)
		n := g.inFlight.Add(int64(len(batch)))
		for {
			p := g.peak.Load()
			if n <= p || g.peak.CompareAndSwap(p, n) {
				break
			}
		}
		select {
		case g.ch <- batch:
		case <-g.ctx.Done():
			g.inFlight.Add(-int64(len(batch)))
			g.fail(g.ctx.Err())
			return
		}
	}
}

// fail records the first worker error and cancels every sibling.
func (g *Gather) fail(err error) {
	g.errOnce.Do(func() {
		g.firstErr = err
		g.cancel()
	})
}

// Next implements Operator: receives the next worker batch. Order
// across workers is arbitrary; order within one worker is preserved.
func (g *Gather) Next() ([]table.Row, error) {
	defer g.stats.timed(time.Now())
	if !g.open {
		return nil, errOpen(g)
	}
	if g.done {
		return nil, g.firstErr
	}
	rows, ok := <-g.ch
	if !ok {
		// Channel closed after every producer exited: the closer's
		// close(ch) orders their g.firstErr writes before this read.
		g.done = true
		return nil, g.firstErr
	}
	g.inFlight.Add(-int64(len(rows)))
	g.stats.RowsIn += len(rows)
	g.stats.emitted(rows)
	return rows, nil
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
		for range g.ch {
		}
		g.ch = nil
	}
	var first error
	for _, w := range g.workers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, a := range g.aux {
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RetainableBatches implements Retainer: produce has already copied.
func (g *Gather) RetainableBatches() bool { return true }

// Workers returns the fan-out width of the exchange.
func (g *Gather) Workers() int { return len(g.workers) }

// OutSchema implements Operator.
func (g *Gather) OutSchema() table.Schema { return g.workers[0].OutSchema() }

// Stats implements Operator. HeldRows is the peak number of rows in
// flight inside the exchange (queued plus being sent).
func (g *Gather) Stats() OpStats {
	st := g.stats
	st.HeldRows = int(g.peak.Load())
	return st
}

// Children implements Operator: shared aux first, then the workers.
func (g *Gather) Children() []Operator {
	out := make([]Operator, 0, len(g.aux)+len(g.workers))
	out = append(out, g.aux...)
	out = append(out, g.workers...)
	return out
}

func (g *Gather) String() string { return fmt.Sprintf("gather[%d]", len(g.workers)) }

// ParallelScan deals t's heap pages to n MorselScan workers behind a
// Gather — the parallel form of Scan.
func ParallelScan(t *table.Table, n int) *Gather {
	src := t.NewMorselSource()
	workers := make([]Operator, n)
	for i := range workers {
		workers[i] = NewMorselScan(src, nil)
	}
	return NewGather(workers)
}

// HashBuild is the parallel build side of a partitioned hash join: Open
// drains N builder subtrees concurrently, each routing its rows (kept,
// see keep) into per-partition buckets by key digest, then builds the
// partitions' keyed tables in parallel — two fan-outs with a barrier
// between, all inside Open (the sanctioned blocking phase). After Open
// the partitions are immutable, so any number of ProbeJoin workers may
// probe them concurrently without locks.
//
// HashBuild is an Operator so it can sit in the tree (as a Gather aux
// dependency) for stats and EXPLAIN, but it emits nothing: Next is
// immediately exhausted.
type HashBuild struct {
	builders []Operator
	col      int

	cancel  context.CancelFunc
	parts   []keyedRows
	started bool
	stats   OpStats
	open    bool
}

// NewHashBuild builds a partitioned index over the builders' rows keyed
// on column col. All builders must share one output schema (the
// planner's per-worker copies of the build side).
func NewHashBuild(builders []Operator, col int) *HashBuild {
	if len(builders) == 0 {
		panic("exec: HashBuild needs at least one builder")
	}
	return &HashBuild{builders: builders, col: col}
}

// Open implements Operator: the two-phase parallel build.
func (b *HashBuild) Open(ctx context.Context) error {
	b.stats = OpStats{}
	defer b.stats.timed(time.Now())
	b.open = true
	b.started = false
	nparts := len(b.builders)
	wctx, cancel := context.WithCancel(ctx)
	b.cancel = cancel

	// Phase 1: each builder drains its subtree, routing kept rows into
	// its own per-partition buckets (no shared state, no locks).
	// First-error-wins: the error that triggered the cancellation is the
	// one reported, not a sibling's resulting context.Canceled.
	buckets := make([][][]table.Row, len(b.builders)) // [builder][partition][]row
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}
	var wg sync.WaitGroup
	for i, bl := range b.builders {
		wg.Add(1)
		go func(i int, bl Operator) {
			defer wg.Done()
			bsp := workerSpan(ctx, "build", i)
			defer bsp.End()
			local := make([][]table.Row, nparts)
			if err := bl.Open(wctx); err != nil {
				fail(err)
				return
			}
			for {
				rows, err := bl.Next()
				if err != nil {
					fail(err)
					return
				}
				if rows == nil {
					buckets[i] = local
					return
				}
				if err := wctx.Err(); err != nil {
					fail(err)
					return
				}
				// Poll the caller's context per batch too: deadline and
				// countdown contexts cancel inside Err, which the
				// derived wctx never calls.
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				bsp.AddRows(len(rows))
				bsp.AddBatches(1)
				for _, r := range keep(bl, rows) {
					p := int(keyDigest(r[b.col]) % uint64(nparts))
					local[p] = append(local[p], r)
				}
			}
		}(i, bl)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase 2: one goroutine per partition files every builder's bucket
	// for that partition into the partition's keyed table.
	b.parts = make([]keyedRows, nparts)
	for p := range b.parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			n := 0
			for _, local := range buckets {
				n += len(local[p])
			}
			rows := make([]table.Row, 0, n)
			for _, local := range buckets {
				rows = append(rows, local[p]...)
			}
			b.parts[p] = fileRows(rows, b.col)
		}(p)
	}
	wg.Wait()
	for p := range b.parts {
		b.stats.HeldRows += len(b.parts[p].rows)
	}
	b.stats.RowsIn = b.stats.HeldRows
	b.started = true
	return ctx.Err()
}

// join queues probe row pr joined with the build rows matching its key
// k. Read-only after Open; safe for concurrent probes.
func (b *HashBuild) join(out *joinOut, pr table.Row, k core.Value) {
	b.parts[int(keyDigest(k)%uint64(len(b.parts)))].join(out, pr, k)
}

// Next implements Operator: a build emits nothing.
func (b *HashBuild) Next() ([]table.Row, error) {
	if !b.open {
		return nil, errOpen(b)
	}
	return nil, nil
}

// Close implements Operator.
func (b *HashBuild) Close() error {
	b.open = false
	b.started = false
	b.parts = nil
	if b.cancel != nil {
		b.cancel()
	}
	var first error
	for _, bl := range b.builders {
		if err := bl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OutSchema implements Operator: the build side's schema.
func (b *HashBuild) OutSchema() table.Schema { return b.builders[0].OutSchema() }

// Stats implements Operator.
func (b *HashBuild) Stats() OpStats { return b.stats }

// Children implements Operator.
func (b *HashBuild) Children() []Operator { return b.builders }

func (b *HashBuild) String() string {
	return fmt.Sprintf("hashbuild[%s p=%d]", b.OutSchema().Cols[b.col], len(b.builders))
}

// ProbeJoin is one probe worker of a partitioned hash join: it streams
// its probe subtree, the join's left input, against a shared
// (already-opened) HashBuild of its right input, so output is
// probe-columns ++ build-columns like HashJoin, and comes out of the
// same reused joinOut slabs.
type ProbeJoin struct {
	probe    Operator
	build    *HashBuild
	probeCol int

	ctx   context.Context
	out   joinOut
	done  bool
	stats OpStats
	open  bool
}

// NewProbeJoin probes build with probe.probeCol. The HashBuild is a
// shared dependency opened by the enclosing Gather (aux), not by this
// operator; it appears in the Gather's children, not here.
func NewProbeJoin(probe Operator, build *HashBuild, probeCol int) *ProbeJoin {
	return &ProbeJoin{probe: probe, build: build, probeCol: probeCol}
}

// Open implements Operator: opens only the probe subtree; the shared
// build must already be open.
func (j *ProbeJoin) Open(ctx context.Context) error {
	j.stats = OpStats{}
	defer j.stats.timed(time.Now())
	j.ctx = ctx
	j.out = joinOut{}
	j.done = false
	j.open = true
	if !j.build.started {
		return fmt.Errorf("exec: %s: probe before its HashBuild opened", j)
	}
	return j.probe.Open(ctx)
}

// Next implements Operator.
func (j *ProbeJoin) Next() ([]table.Row, error) {
	defer j.stats.timed(time.Now())
	if !j.open {
		return nil, errOpen(j)
	}
	for j.out.drained() {
		if j.done {
			return nil, nil
		}
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		rows, err := j.probe.Next()
		if err != nil {
			return nil, err
		}
		if rows == nil {
			j.done = true
			return nil, nil
		}
		j.stats.RowsIn += len(rows)
		j.out.refill(len(rows))
		for _, pr := range rows {
			j.build.join(&j.out, pr, pr[j.probeCol])
		}
	}
	out := j.out.next()
	j.stats.emitted(out)
	return out, nil
}

// Close implements Operator: closes only the probe subtree (the shared
// build belongs to the Gather).
func (j *ProbeJoin) Close() error {
	j.open = false
	j.out = joinOut{}
	return j.probe.Close()
}

// OutSchema implements Operator: probe ++ build, like HashJoin.
func (j *ProbeJoin) OutSchema() table.Schema {
	return table.JoinSchema(j.probe.OutSchema(), j.build.OutSchema())
}

// Stats implements Operator.
func (j *ProbeJoin) Stats() OpStats { return j.stats }

// Children implements Operator: the probe subtree only; the shared
// HashBuild is listed once, by the enclosing Gather.
func (j *ProbeJoin) Children() []Operator { return []Operator{j.probe} }

func (j *ProbeJoin) String() string {
	return "probejoin[" + j.probe.OutSchema().Cols[j.probeCol] + "]"
}

// ParallelGroupAgg is the parallel partial-aggregate: Open drains N
// worker subtrees concurrently, each into a private AggState, then
// folds the partials with AggState.Merge — the classic partial/final
// aggregation split. Like GroupAgg it is a full pipeline breaker, so
// everything happens in Open and Next just chunks the merged result.
// aux operators are shared worker dependencies (e.g. a HashBuild),
// opened before the workers start.
type ParallelGroupAgg struct {
	workers []Operator
	aux     []Operator
	keyCol  int
	aggs    []Agg

	cancel context.CancelFunc
	queue  []table.Row
	stats  OpStats
	open   bool
}

// NewParallelGroupAgg aggregates the union of the workers' outputs,
// grouping on keyCol.
func NewParallelGroupAgg(workers []Operator, aux []Operator, keyCol int, aggs ...Agg) *ParallelGroupAgg {
	if len(workers) == 0 {
		panic("exec: ParallelGroupAgg needs at least one worker")
	}
	return &ParallelGroupAgg{workers: workers, aux: aux, keyCol: keyCol, aggs: aggs}
}

// Open implements Operator: parallel partial aggregation, barrier,
// merge.
func (g *ParallelGroupAgg) Open(ctx context.Context) error {
	g.stats = OpStats{}
	defer g.stats.timed(time.Now())
	g.open = true
	wctx, cancel := context.WithCancel(ctx)
	g.cancel = cancel
	for _, a := range g.aux {
		if err := a.Open(wctx); err != nil {
			return err
		}
	}
	// First-error-wins, as in HashBuild: report the error that caused
	// the cancellation, not a sibling's resulting context.Canceled.
	states := make([]*AggState, len(g.workers))
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}
	var wg sync.WaitGroup
	for i, w := range g.workers {
		wg.Add(1)
		go func(i int, w Operator) {
			defer wg.Done()
			psp := workerSpan(ctx, "partial", i)
			defer psp.End()
			st := NewAggState(g.keyCol, g.aggs...)
			if err := w.Open(wctx); err != nil {
				fail(err)
				return
			}
			for {
				rows, err := w.Next()
				if err != nil {
					fail(err)
					return
				}
				if rows == nil {
					states[i] = st
					return
				}
				if err := wctx.Err(); err != nil {
					fail(err)
					return
				}
				// Per-batch poll of the caller's context (deadline and
				// countdown contexts cancel inside Err, which the
				// derived wctx never calls).
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				psp.AddRows(len(rows))
				psp.AddBatches(1)
				if err := st.Absorb(rows); err != nil {
					fail(err)
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	msp := trace.SpanOf(ctx).Start("merge")
	defer msp.End()
	merged := states[0]
	for _, st := range states[1:] {
		if err := merged.Merge(st); err != nil {
			return err
		}
	}
	rows, err := merged.Rows()
	if err != nil {
		return err
	}
	g.queue = rows
	g.stats.RowsIn = merged.RowsIn()
	g.stats.HeldRows = merged.Groups()
	return nil
}

// Next implements Operator.
func (g *ParallelGroupAgg) Next() ([]table.Row, error) {
	defer g.stats.timed(time.Now())
	if !g.open {
		return nil, errOpen(g)
	}
	if len(g.queue) == 0 {
		return nil, nil
	}
	n := min(len(g.queue), MaxBatchRows)
	out := g.queue[:n]
	g.queue = g.queue[n:]
	g.stats.emitted(out)
	return out, nil
}

// Close implements Operator.
func (g *ParallelGroupAgg) Close() error {
	g.open = false
	g.queue = nil
	if g.cancel != nil {
		g.cancel()
	}
	var first error
	for _, w := range g.workers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, a := range g.aux {
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RetainableBatches implements Retainer: AggState.Rows allocates fresh
// rows and the chunked arrays are never rewritten.
func (g *ParallelGroupAgg) RetainableBatches() bool { return true }

// Workers returns the partial-aggregation fan-out width.
func (g *ParallelGroupAgg) Workers() int { return len(g.workers) }

// OutSchema implements Operator: (key, agg1, agg2, …) like GroupAgg.
func (g *ParallelGroupAgg) OutSchema() table.Schema {
	in := g.workers[0].OutSchema()
	cols := make([]string, 0, 1+len(g.aggs))
	cols = append(cols, in.Cols[g.keyCol])
	for _, a := range g.aggs {
		if a.Kind == AggCount {
			cols = append(cols, "count")
		} else {
			cols = append(cols, fmt.Sprintf("%s(%s)", a.Kind, in.Cols[a.Col]))
		}
	}
	return table.Schema{Name: in.Name, Cols: cols}
}

// Stats implements Operator.
func (g *ParallelGroupAgg) Stats() OpStats { return g.stats }

// Children implements Operator: shared aux first, then the workers.
func (g *ParallelGroupAgg) Children() []Operator {
	out := make([]Operator, 0, len(g.aux)+len(g.workers))
	out = append(out, g.aux...)
	out = append(out, g.workers...)
	return out
}

func (g *ParallelGroupAgg) String() string {
	in := g.workers[0].OutSchema()
	return fmt.Sprintf("pgroupagg[%s x%d w=%d]", in.Cols[g.keyCol], len(g.aggs), len(g.workers))
}
