package exec

import (
	"context"
	"time"

	"xst/internal/core"
	"xst/internal/table"
)

// joinOut is the output side of a hash-join probe, shared by HashJoin
// and ProbeJoin: the matching (probe row, build row) pairs of one probe
// batch, gathered MaxBatchRows at a time into one batch reused by the
// next chunk. What it hands out is scratch until the owner's next Next,
// like any operator's batch.
type joinOut struct {
	probe  *table.Batch
	ps, bs []int32 // the pairs: probe row ps[k] matches build row bs[k]
	pos    int     // pairs [:pos] have been handed out
	batch  table.Batch
}

// drained reports whether every pair has been handed out.
func (o *joinOut) drained() bool { return o.pos == len(o.ps) }

// refill pairs every row of probe batch b with the build rows whose key
// equals its key column col; part picks the keyed table a digest is
// filed in.
func (o *joinOut) refill(b *table.Batch, col int, part func(d uint64) *keyedRows) {
	o.probe, o.pos = b, 0
	if cap(o.ps) < b.Len { // room for one match a row, the common fan-out
		o.ps, o.bs = make([]int32, 0, b.Len), make([]int32, 0, b.Len)
	}
	o.ps, o.bs = o.ps[:0], o.bs[:0]
	key := &b.Cols[col]
	for i := 0; i < b.Len; i++ {
		d := key.Digest(i) & digestMask
		t := part(d)
		for id := t.chains.First(d); id >= 0; id = t.chains.Next(id) {
			if r := t.base + id; t.rows.Cols[t.col].Equal(int(r), key, i) {
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
// force collisions and prove the Equal comparison behind a digest match.
var digestMask = ^uint64(0)

// keyedRows files a run of a hash join's kept build rows — rows
// [base, base+n) of one batch — by the digest of their key column in
// one core.Chains. Atom and set keys take the one path; Equal tells
// them apart.
type keyedRows struct {
	col    int
	rows   *table.Batch
	base   int32
	chains core.Chains
}

// fileRows files rows [base, base+n) of rows under their key column.
func fileRows(rows *table.Batch, col int, base, n int) keyedRows {
	t := keyedRows{col: col, rows: rows, base: int32(base), chains: core.NewChains(n)}
	key := &rows.Cols[col]
	for i := base; i < base+n; i++ {
		t.chains.Add(key.Digest(i) & digestMask)
	}
	return t
}

// HashJoin is the Relative Product (Def 10.1) in streaming form: Open
// drains the *build* side into a keyed table — the one sanctioned
// materialization — and Next streams probe batches against it, so the
// probe side never sits in memory whole. The right child builds and
// the left probes, so the planner, not this operator, decides which
// input is held; output rows are left-columns ++ right-columns.
type HashJoin struct {
	left, right       Operator
	leftCol, rightCol int // key positions in each child's output schema

	ctx   context.Context
	rows  table.Batch // the build side
	build keyedRows
	out   joinOut
	done  bool
	stats OpStats
	open  bool
}

// one is the partition function of a serial build: its only table.
func (j *HashJoin) one(uint64) *keyedRows { return &j.build }

// NewHashJoin joins left and right on left.leftCol = right.rightCol,
// building the hash index over the right child.
func NewHashJoin(left, right Operator, leftCol, rightCol int) *HashJoin {
	return &HashJoin{left: left, right: right, leftCol: leftCol, rightCol: rightCol}
}

// Open implements Operator: opens both children and consumes the build
// side into the index. Build batches are copied out of child scratch
// into one batch, then filed at once; the context is polled per batch.
func (j *HashJoin) Open(ctx context.Context) error {
	j.stats = OpStats{}
	defer j.stats.timed(time.Now())
	j.ctx = ctx
	j.rows.Reset()
	j.build = keyedRows{}
	j.out = joinOut{}
	j.done = false
	j.open = true
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	for {
		b, err := j.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		j.stats.RowsIn += b.Len
		j.rows.AppendSel(b, nil)
	}
	j.build = fileRows(&j.rows, j.rightCol, 0, j.rows.Len)
	j.stats.HeldRows = j.rows.Len
	return nil
}

// Next implements Operator: pulls probe batches until matches
// accumulate, then emits them in MaxBatchRows chunks.
func (j *HashJoin) Next() (*table.Batch, error) {
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
		b, err := j.left.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.done = true
			return nil, nil
		}
		j.stats.RowsIn += b.Len
		if j.rows.Len > 0 {
			j.out.refill(b, j.leftCol, j.one)
		}
	}
	out := j.out.next(&j.rows)
	j.stats.emitted(out)
	return out, nil
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.open = false
	j.rows, j.build, j.out = table.Batch{}, keyedRows{}, joinOut{}
	lerr := j.left.Close()
	rerr := j.right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// OutSchema implements Operator: left ++ right with colliding names
// auto-qualified, matching the logical plan.Join schema.
func (j *HashJoin) OutSchema() table.Schema {
	return table.JoinSchema(j.left.OutSchema(), j.right.OutSchema())
}

// Stats implements Operator.
func (j *HashJoin) Stats() OpStats { return j.stats }

// Children implements Operator.
func (j *HashJoin) Children() []Operator { return []Operator{j.left, j.right} }

func (j *HashJoin) String() string {
	l, r := j.left.OutSchema(), j.right.OutSchema()
	return "hashjoin[" + l.Cols[j.leftCol] + "=" + r.Cols[j.rightCol] + "]"
}
