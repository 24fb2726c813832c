package exec

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xst/internal/core"
	"xst/internal/table"
)

// joinOut is the output side of a hash-join probe: the matching (probe
// row, build row) pairs of one probe batch, gathered MaxBatchRows at a
// time into one batch reused by the next chunk. What it hands out is
// scratch until the owner's next Next, like any operator's batch. A
// probe takes one off the free list at Open and puts it back at Close.
type joinOut struct {
	probe  *table.Batch
	ps, bs []int32 // the pairs: probe row ps[k] matches build row bs[k]
	pos    int     // pairs [:pos] have been handed out
	batch  table.Batch
}

// release scrubs o, empties it and puts it back on its free list.
func (o *joinOut) release() {
	o.probe, o.ps, o.bs, o.pos = nil, o.ps[:0], o.bs[:0], 0
	scrub(&o.batch)
	joinOuts.put(o)
}

// drained reports whether every pair has been handed out.
func (o *joinOut) drained() bool { return o.pos == len(o.ps) }

// refill pairs every row of probe batch b with the build rows whose key
// equals its key column col.
func (o *joinOut) refill(b *table.Batch, col int, build *HashBuild) {
	keys := &build.mem.rows.Cols[build.col]
	o.probe, o.pos = b, 0
	if cap(o.ps) < b.Len { // room for one match a row, the common fan-out
		o.ps, o.bs = make([]int32, 0, b.Len), make([]int32, 0, b.Len)
	}
	o.ps, o.bs = o.ps[:0], o.bs[:0]
	key := &b.Cols[col]
	for i := 0; i < b.Len; i++ {
		d := keyDigest(key, i)
		t := build.part(d)
		for id := t.chains.First(d); id >= 0; id = t.chains.Next(id) {
			if r := t.row(id); keys.Equal(int(r), key, i) {
				o.ps, o.bs = append(o.ps, int32(i)), append(o.bs, r)
			}
		}
	}
}

// next gathers the next chunk of pairs, probe columns then the columns
// of build, into the output batch.
func (o *joinOut) next(build *table.Batch) *table.Batch {
	lo := o.pos
	o.pos = min(len(o.ps), lo+MaxBatchRows)
	o.batch.Join(o.probe, o.ps[lo:o.pos], build, o.bs[lo:o.pos])
	return &o.batch
}

// digestMask is the key-digest mask outside tests, which narrow it to
// force collisions and prove the Equal comparison behind a chain's ids.
var digestMask = ^uint64(0)

// digests, set only by tests, counts keyDigest's calls.
var digests *atomic.Int64

// keyDigest is the digest a keyed table files value i of key under.
func keyDigest(key *table.Col, i int) uint64 {
	if digests != nil {
		digests.Add(1)
	}
	return key.Digest(i) & digestMask
}

// keyedRows files a hash join's kept build rows — rows of one batch,
// every row or those a list of ids names — by the digest of their key
// column in one core.Chains. Atom and set keys take the one path;
// Equal tells them apart.
type keyedRows struct {
	ids    []int32 // chain id → build row; nil: the chain id is the row
	chains core.Chains
}

// fileIDs files in t the rows ids names under digs, their key digests.
func (t *keyedRows) fileIDs(ids []int32, digs []uint64) {
	t.ids = ids
	t.chains.Reset(len(ids))
	for _, d := range digs {
		t.chains.Add(d)
	}
}

// fileAll files in t every row of rows under the digest of its key
// column col.
func (t *keyedRows) fileAll(rows *table.Batch, col int) {
	t.ids = nil
	t.chains.Reset(rows.Len)
	if rows.Len == 0 {
		return // a build that delivered no batch has no columns
	}
	key := &rows.Cols[col]
	for r := range rows.Len {
		t.chains.Add(keyDigest(key, r))
	}
}

// row is the row filed as chain id.
func (t *keyedRows) row(id int32) int32 {
	if t.ids == nil {
		return id
	}
	return t.ids[id]
}

// HashBuild is the build side of a hash join, the join's sanctioned
// materialization, held in Open. One builder's rows are copied into one
// batch and filed in one keyed table. N builders drain concurrently into
// one shared batch, noting each row's partition by key digest, then
// each partition's keyed table is filed in parallel — two fan-outs with
// a barrier between. After Open the partitions are immutable, so any
// number of ProbeJoin workers may probe them without locks.
//
// HashBuild is an Operator so it can sit in the tree (as a Gather aux
// dependency) for stats and EXPLAIN, but it emits nothing: Next is
// immediately exhausted.
type HashBuild struct {
	builders []Operator
	col      int
	est      int // the planner's build rows, reserved for at the first batch; 0: none

	mem   *buildMem   // what the build holds, off the free list; nil while closed
	parts []keyedRows // mem's keyed tables, nil until built
	held  int         // rows the last build held, reported past Close
	ns    int64       // time in the last Open
}

// buildMem is what a HashBuild holds from Open to Close: the build
// rows, in the order the builders delivered them, and the keyed tables;
// for a parallel build, each partition's rows and their key digests,
// and each builder's digests of its batch.
type buildMem struct {
	rows    table.Batch
	parts   []keyedRows
	ids     [][]int32  // partition → its rows of rows
	digs    [][]uint64 // partition → the key digests of its rows
	scratch [][]uint64 // builder → the key digests of its batch
}

// resize returns s at length n, keeping its elements when it has room.
func resize[T any](s []T, n int) []T { return table.Grow(s[:0], n)[:n] }

// NewHashBuild builds a partitioned index over the builders' rows keyed
// on column col. All builders must share one output schema (the
// planner's per-worker copies of the build side). rows is the planner's
// estimate of the build rows, or 0.
func NewHashBuild(builders []Operator, col, rows int) *HashBuild {
	if len(builders) == 0 {
		panic("exec: HashBuild needs at least one builder")
	}
	return &HashBuild{builders: builders, col: col, est: rows}
}

// reserve sizes the copy for the estimate at the first batch, and the
// rows and digests of each of nparts partitions for its even share, an
// eighth and 16 more.
func (b *HashBuild) reserve(batch *table.Batch, nparts int) {
	m := b.mem
	if m.rows.Len == 0 && b.est > 0 {
		m.rows.Reserve(batch, b.est)
		for p := range nparts {
			n := b.est/nparts*9/8 + 16
			m.ids[p], m.digs[p] = table.Grow(m.ids[p], n), table.Grow(m.digs[p], n)
		}
	}
}

// Open implements Operator: one builder's rows are filed in one keyed
// table; several run the two-phase parallel build.
func (b *HashBuild) Open(ctx context.Context) error {
	start := time.Now()
	defer func() { b.ns = time.Since(start).Nanoseconds() }()
	b.release()
	b.mem, b.held = buildMems.get(), 0
	b.mem.rows.Reset()
	b.mem.parts = resize(b.mem.parts, len(b.builders))
	var err error
	if len(b.builders) > 1 {
		err = b.buildParts(ctx)
	} else if err = drainAll(ctx, "build", b.builders, b); err == nil {
		b.mem.parts[0].fileAll(&b.mem.rows, b.col)
		b.parts = b.mem.parts
	}
	if err != nil {
		return err
	}
	b.held = b.mem.rows.Len
	return ctx.Err()
}

// take implements sink for the one builder: it copies each batch into
// the build rows.
func (b *HashBuild) take(_ int, batch *table.Batch) error {
	b.reserve(batch, 0)
	b.mem.rows.AppendSel(batch, nil)
	return nil
}

// buildParts is the two-phase parallel build.
func (b *HashBuild) buildParts(ctx context.Context) error {
	m, nparts := b.mem, len(b.builders)
	m.ids, m.digs, m.scratch = resize(m.ids, nparts), resize(m.digs, nparts), resize(m.scratch, nparts)
	for p := range nparts {
		m.ids[p], m.digs[p] = m.ids[p][:0], m.digs[p][:0]
	}

	// Phase 1: each builder drains its subtree, appending each batch to
	// the one shared batch of build rows and each row's position and key
	// digest to the lists of its partition, under one lock; the digests,
	// which pick the partitions, are taken outside it.
	var mu sync.Mutex
	err := drainAll(ctx, "build", b.builders, sinkFunc(func(i int, batch *table.Batch) error {
		key, digs := &batch.Cols[b.col], m.scratch[i][:0]
		for r := range batch.Len {
			digs = append(digs, keyDigest(key, r))
		}
		m.scratch[i] = digs
		mu.Lock()
		defer mu.Unlock()
		b.reserve(batch, nparts)
		base := int32(m.rows.Len)
		m.rows.AppendSel(batch, nil)
		for r, d := range digs {
			p := d % uint64(nparts)
			m.ids[p], m.digs[p] = push(m.ids[p], base+int32(r)), push(m.digs[p], d)
		}
		return nil
	}))
	if err != nil {
		return err
	}

	// Phase 2: file each partition's rows under the digests phase 1 took
	// into its keyed table, one goroutine per partition.
	var wg sync.WaitGroup
	for p := range m.parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			m.parts[p].fileIDs(m.ids[p], m.digs[p])
		}(p)
	}
	wg.Wait()
	b.parts = m.parts
	return nil
}

// part returns the partition a key digest is filed in. Read-only after
// Open; safe for concurrent probes.
func (b *HashBuild) part(d uint64) *keyedRows {
	if len(b.parts) == 1 {
		return &b.parts[0]
	}
	return &b.parts[d%uint64(len(b.parts))]
}

// Next implements Operator: a build emits nothing.
func (b *HashBuild) Next() (*table.Batch, error) {
	if b.parts == nil {
		return nil, errOpen(b)
	}
	return nil, nil
}

// Close implements Operator: it puts the held memory back.
func (b *HashBuild) Close() error {
	b.release()
	return closeOps(b.builders)
}

// release scrubs the held memory and puts it back.
func (b *HashBuild) release() {
	if b.mem != nil {
		scrub(&b.mem.rows)
		buildMems.put(b.mem)
		b.mem, b.parts = nil, nil
	}
}

// OutSchema implements Operator: the build side's schema.
func (b *HashBuild) OutSchema() table.Schema { return b.builders[0].OutSchema() }

// Stats implements Operator: the rows in, which are the rows held, and
// the time.
func (b *HashBuild) Stats() OpStats { return OpStats{RowsIn: b.held, HeldRows: b.held, Ns: b.ns} }

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
	probe Operator
	build *HashBuild

	ctx      context.Context // nil while closed
	out      *joinOut        // off the free list at Open, back at Close
	stats    OpStats
	probeCol int32 // shares a word with done: a HashJoin fits a serial join's size class
	done     bool
}

// NewProbeJoin probes build with probe.probeCol. The HashBuild is a
// shared dependency opened by the enclosing Gather (aux), not by this
// operator; it appears in the Gather's children, not here.
func NewProbeJoin(probe Operator, build *HashBuild, probeCol int) *ProbeJoin {
	return &ProbeJoin{probe: probe, build: build, probeCol: int32(probeCol)}
}

// Open implements Operator: opens only the probe subtree; the shared
// build must already be open.
func (j *ProbeJoin) Open(ctx context.Context) error {
	j.stats = OpStats{}
	defer j.stats.timed(time.Now())
	j.ctx = ctx
	j.done = false
	if j.build.parts == nil {
		return fmt.Errorf("exec: %s: probe before its HashBuild opened", j)
	}
	j.release()
	j.out = joinOuts.get()
	return j.probe.Open(ctx)
}

// Next implements Operator.
func (j *ProbeJoin) Next() (*table.Batch, error) {
	defer j.stats.timed(time.Now())
	if j.ctx == nil {
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
		if j.build.mem.rows.Len > 0 {
			j.out.refill(b, int(j.probeCol), j.build)
		}
	}
	out := j.out.next(&j.build.mem.rows)
	j.stats.emitted(out)
	return out, nil
}

// Close implements Operator: closes only the probe subtree (the shared
// build belongs to the Gather).
func (j *ProbeJoin) Close() error {
	j.ctx = nil
	j.release()
	return j.probe.Close()
}

// release puts the output side back.
func (j *ProbeJoin) release() {
	if j.out != nil {
		j.out.release()
		j.out = nil
	}
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

// HashJoin is the Relative Product (Def 10.1) in streaming form: the
// one-worker ProbeJoin, over a one-builder HashBuild of its own. Open
// drains the right input into the build — the one sanctioned
// materialization — and Next streams left batches against it, so the
// probe side never sits in memory whole. The right child builds and the
// left probes, so the planner, not this operator, decides which input
// is held; output rows are left-columns ++ right-columns.
type HashJoin struct {
	ProbeJoin
	hb    HashBuild
	right [1]Operator
}

// NewHashJoin joins left and right on left.leftCol = right.rightCol,
// building the hash index over the right child, of about rows rows.
func NewHashJoin(left, right Operator, leftCol, rightCol, rows int) *HashJoin {
	j := &HashJoin{right: [1]Operator{right}}
	j.hb = HashBuild{builders: j.right[:], col: rightCol, est: rows}
	j.ProbeJoin = ProbeJoin{probe: left, build: &j.hb, probeCol: int32(leftCol)}
	return j
}

// Open implements Operator: builds, then opens the probe.
func (j *HashJoin) Open(ctx context.Context) error {
	if err := j.hb.Open(ctx); err != nil {
		return err
	}
	return j.ProbeJoin.Open(ctx)
}

// Close implements Operator: closes the probe, then the build.
func (j *HashJoin) Close() error { return cmp.Or(j.ProbeJoin.Close(), j.hb.Close()) }

// Stats implements Operator: the probe's counters, with the build's
// rows and time and the rows it holds.
func (j *HashJoin) Stats() OpStats {
	st, b := j.ProbeJoin.Stats(), j.hb.Stats()
	st.RowsIn += b.RowsIn
	st.HeldRows = b.HeldRows
	st.Ns += b.Ns
	return st
}

// Children implements Operator: the probe input, then the build input.
func (j *HashJoin) Children() []Operator { return []Operator{j.probe, j.right[0]} }

func (j *HashJoin) String() string {
	return "hashjoin[" + j.probe.OutSchema().Cols[j.probeCol] + "=" + j.hb.OutSchema().Cols[j.hb.col] + "]"
}
