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
// after the send. So Gather copies every batch before it crosses the
// channel, and what arrives belongs to Gather's consumer.

// MorselScan is one parallel-scan worker: it claims heap pages (morsels)
// from a shared table.MorselSource and emits each page's rows as
// batches. N MorselScans over one source partition the table
// dynamically — fast workers claim more pages. Each worker decodes into
// its own table.PageBatch, so its batches are scratch until its next
// Next and an exchange above it copies them; positions outside need are
// ColAbsent (see NewScan).
type MorselScan struct {
	src   *table.MorselSource
	need  []bool
	batch table.PageBatch
	ctx   context.Context
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
	s.open = true
	return ctx.Err()
}

// Next implements Operator: one claimed page per batch, polled against
// the context so a deadline aborts between morsels.
func (s *MorselScan) Next() (*table.Batch, error) {
	defer s.stats.timed(time.Now())
	if !s.open {
		return nil, errOpen(s)
	}
	for {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		id, ok := s.src.Next()
		if !ok {
			return nil, nil
		}
		b, err := s.src.Table().ReadPage(id, &s.batch, s.need)
		if err != nil {
			return nil, err
		}
		s.stats.RowsIn += b.Len
		if b.Len > 0 {
			s.stats.emitted(b)
			return b, nil
		}
	}
}

// Close implements Operator.
func (s *MorselScan) Close() error {
	s.open = false
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
//   - ownership: every batch is copied before it crosses the channel,
//     so what Next returns no worker touches; it is scratch until the
//     next Next, which hands it back to a free list the producers copy
//     into, so batches are recycled rather than allocated per batch.
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
	ch       chan *table.Batch
	free     chan *table.Batch // batches the consumer is done with
	last     *table.Batch      // the batch Next handed out last
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
	for _, a := range g.aux {
		if err := a.Open(g.ctx); err != nil {
			return err
		}
	}
	g.ch = make(chan *table.Batch, len(g.workers))
	// Every batch in circulation is queued, being filled by a producer or
	// held by the consumer, so this many free slots never block a send.
	g.free = make(chan *table.Batch, 2*len(g.workers)+1)
	go func() {
		// The workers run under g.ctx, so Close's cancel reaches a worker
		// blocked inside its own Next. close(ch) orders the firstErr
		// write before Next reads it.
		g.firstErr = drainAll(g.ctx, "worker", g.workers, g.send)
		close(g.ch)
	}()
	return nil
}

// send copies one worker batch into a free batch, or a new one, and
// sends it across the exchange.
func (g *Gather) send(_ int, b *table.Batch) error {
	// Poll the caller's context, not just the derived one: the derived
	// context only observes cancellation that has already propagated,
	// while deadline/countdown contexts cancel inside their own Err
	// method — the per-batch poll the Operator contract promises.
	if err := g.parent.Err(); err != nil {
		return err
	}
	var batch *table.Batch
	select {
	case batch = <-g.free:
		batch.Reset()
	default:
		batch = new(table.Batch)
	}
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
	if g.last != nil {
		select {
		case g.free <- g.last:
		default:
		}
		g.last = nil
	}
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
		for range g.ch {
		}
		g.ch = nil
	}
	g.free, g.last = nil, nil
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

// drainAll drains every op on a goroutine of its own, handing op i's
// batches to each(i, b), and returns once all are done. The ops run
// under a context derived from ctx and poll both per batch (deadline
// and countdown contexts cancel inside Err, which the derived context
// never calls). First-error-wins: the first error — an op's, each's or
// a context's — cancels the others and is the one returned, not a
// sibling's resulting context.Canceled. phase names the per-worker
// trace spans.
func drainAll(ctx context.Context, phase string, ops []Operator, each func(i int, b *table.Batch) error) error {
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
			err := op.Open(wctx)
			for err == nil {
				var b *table.Batch
				if b, err = op.Next(); err != nil || b == nil {
					break
				}
				if err = cmp.Or(wctx.Err(), ctx.Err()); err == nil {
					sp.AddRows(b.Len)
					sp.AddBatches(1)
					err = each(i, b)
				}
			}
			if err != nil {
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

// HashBuild is the parallel build side of a partitioned hash join: Open
// drains N builder subtrees concurrently, each copying its rows once
// into one shared batch and noting each row's partition by key digest,
// then files each partition's keyed table over that batch in parallel
// — two fan-outs with a barrier between, all inside Open (the
// sanctioned blocking phase). After Open
// the partitions are immutable, so any number of ProbeJoin workers may
// probe them concurrently without locks.
//
// HashBuild is an Operator so it can sit in the tree (as a Gather aux
// dependency) for stats and EXPLAIN, but it emits nothing: Next is
// immediately exhausted.
type HashBuild struct {
	builders []Operator
	col      int

	rows    table.Batch // every build row, in the order the builders delivered them
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

	// Phase 1: each builder drains its subtree, appending each batch to
	// the one shared batch of build rows and each row's position to the
	// list of its partition, under one lock; the digests that pick the
	// partitions are taken outside it.
	b.rows.Reset()
	ids := make([][]int32, nparts)            // partition → its rows of b.rows
	scratch := make([][]int, len(b.builders)) // per builder: the partition of each row of its batch
	var mu sync.Mutex
	err := drainAll(ctx, "build", b.builders, func(i int, batch *table.Batch) error {
		key, parts := &batch.Cols[b.col], scratch[i][:0]
		for r := 0; r < batch.Len; r++ {
			parts = append(parts, int((key.Digest(r)&digestMask)%uint64(nparts)))
		}
		scratch[i] = parts
		mu.Lock()
		defer mu.Unlock()
		base := int32(b.rows.Len)
		b.rows.AppendSel(batch, nil)
		for r, p := range parts {
			ids[p] = append(ids[p], base+int32(r))
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 2: file each partition's rows into its keyed table, one
	// goroutine per partition; an empty partition keeps the empty table.
	b.parts = make([]keyedRows, nparts)
	var wg sync.WaitGroup
	for p := range b.parts {
		if len(ids[p]) > 0 {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				b.parts[p] = fileRows(&b.rows, b.col, ids[p])
			}(p)
		}
	}
	wg.Wait()
	b.stats.HeldRows = b.rows.Len
	b.stats.RowsIn = b.stats.HeldRows
	b.started = true
	return ctx.Err()
}

// part returns the partition a key digest is filed in. Read-only after
// Open; safe for concurrent probes.
func (b *HashBuild) part(d uint64) *keyedRows { return &b.parts[d%uint64(len(b.parts))] }

// Next implements Operator: a build emits nothing.
func (b *HashBuild) Next() (*table.Batch, error) {
	if !b.open {
		return nil, errOpen(b)
	}
	return nil, nil
}

// Close implements Operator.
func (b *HashBuild) Close() error {
	b.open = false
	b.started = false
	b.rows, b.parts = table.Batch{}, nil
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
// probe-columns ++ build-columns like HashJoin, gathered into the same
// kind of reused joinOut batch.
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
func (j *ProbeJoin) Next() (*table.Batch, error) {
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
		b, err := j.probe.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.done = true
			return nil, nil
		}
		j.stats.RowsIn += b.Len
		if j.build.rows.Len > 0 {
			j.out.refill(b, j.probeCol, j.build.part)
		}
	}
	out := j.out.next(&j.build.rows)
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

	out   ordered
	stats OpStats
	open  bool
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
	for _, a := range g.aux {
		if err := a.Open(ctx); err != nil {
			return err
		}
	}
	states := make([]*AggState, len(g.workers))
	for i := range states {
		states[i] = NewAggState(g.keyCol, g.aggs...)
	}
	if err := drainAll(ctx, "partial", g.workers, func(i int, b *table.Batch) error { return states[i].Absorb(b) }); err != nil {
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
	res, perm, err := merged.Result()
	if err != nil {
		return err
	}
	g.out = ordered{all: res, perm: perm}
	g.stats.RowsIn = merged.RowsIn()
	g.stats.HeldRows = merged.Groups()
	return nil
}

// Next implements Operator.
func (g *ParallelGroupAgg) Next() (*table.Batch, error) {
	defer g.stats.timed(time.Now())
	if !g.open {
		return nil, errOpen(g)
	}
	out := g.out.next()
	if out != nil {
		g.stats.emitted(out)
	}
	return out, nil
}

// Close implements Operator.
func (g *ParallelGroupAgg) Close() error {
	g.open = false
	g.out = ordered{}
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

// Workers returns the partial-aggregation fan-out width.
func (g *ParallelGroupAgg) Workers() int { return len(g.workers) }

// OutSchema implements Operator: (key, agg1, agg2, …) like GroupAgg.
func (g *ParallelGroupAgg) OutSchema() table.Schema {
	return aggSchema(g.workers[0].OutSchema(), g.keyCol, g.aggs)
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
