package exec

import (
	"context"
	"time"

	"xst/internal/core"
	"xst/internal/table"
)

// joinOut is the output side of a hash-join probe, shared by HashJoin
// and ProbeJoin: the joined rows of one probe batch, cut from one value
// slab and queued in one header slab, both reused by the next probe
// batch, and handed out in MaxBatchRows chunks. What it hands out is
// scratch until the owner's next Next, like any operator's batch.
type joinOut struct {
	slab  []core.Value
	queue []table.Row
	pos   int // queue[:pos] has been handed out
	probe int // rows in the probe batch being joined, the sizing hint
}

// drained reports whether every queued row has been handed out.
func (o *joinOut) drained() bool { return o.pos == len(o.queue) }

// refill starts the output of a probe batch of n rows.
func (o *joinOut) refill(n int) {
	o.slab, o.queue, o.pos, o.probe = o.slab[:0], o.queue[:0], 0, n
}

// add queues the joined row l ++ r.
func (o *joinOut) add(l, r table.Row) {
	n := len(l) + len(r)
	if len(o.slab)+n > cap(o.slab) {
		// Continue in a larger slab (a fan-out-one batch fits the first);
		// the rows already cut keep the old one alive.
		o.slab = make([]core.Value, 0, max(2*cap(o.slab), n*o.probe))
	}
	start := len(o.slab)
	o.slab = append(append(o.slab, l...), r...)
	o.queue = append(o.queue, o.slab[start:len(o.slab):len(o.slab)])
}

// next hands out the next chunk of queued rows.
func (o *joinOut) next() []table.Row {
	n := min(len(o.queue)-o.pos, MaxBatchRows)
	out := o.queue[o.pos : o.pos+n]
	o.pos += n
	return out
}

// digestMask is the key-digest mask outside tests, which narrow it to
// force collisions and prove the Equal comparison behind a digest match.
var digestMask = ^uint64(0)

// keyDigest is the digest a keyed table files key value v under.
func keyDigest(v core.Value) uint64 { return core.Digest(v) & digestMask }

// keyedRows is a hash join's build side: the kept build rows, filed by
// the digest of their key column in one core.Chains. Atom and set keys
// take the one path; Equal tells them apart.
type keyedRows struct {
	col    int
	rows   []table.Row
	chains core.Chains
}

// fileRows files rows under their key column col, in Chains sized for
// them.
func fileRows(rows []table.Row, col int) keyedRows {
	t := keyedRows{col: col, rows: rows, chains: core.NewChains(len(rows))}
	for _, r := range rows {
		t.chains.Add(keyDigest(r[col]))
	}
	return t
}

// cutRows cuts vals into its n rows of one width.
func cutRows(vals []core.Value, n, width int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = vals[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// join queues probe row pr joined with every build row whose key
// equals pr's key k.
func (t *keyedRows) join(out *joinOut, pr table.Row, k core.Value) {
	for id := t.chains.First(keyDigest(k)); id >= 0; id = t.chains.Next(id) {
		if br := t.rows[id]; core.Equal(br[t.col], k) {
			out.add(pr, br)
		}
	}
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
	build keyedRows
	out   joinOut
	done  bool
	stats OpStats
	open  bool
}

// NewHashJoin joins left and right on left.leftCol = right.rightCol,
// building the hash index over the right child.
func NewHashJoin(left, right Operator, leftCol, rightCol int) *HashJoin {
	return &HashJoin{left: left, right: right, leftCol: leftCol, rightCol: rightCol}
}

// Open implements Operator: opens both children and consumes the build
// side into the index. Build rows are copied out of child scratch into
// one value slab, then filed at once; the context is polled every few
// hundred rows during the build.
func (j *HashJoin) Open(ctx context.Context) error {
	j.stats = OpStats{}
	defer j.stats.timed(time.Now())
	j.ctx = ctx
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
	var vals []core.Value // the build rows, back to back; rows of one stream share a width
	n, width := 0, 0
	for {
		rows, err := j.right.Next()
		if err != nil {
			return err
		}
		if rows == nil {
			break
		}
		j.stats.RowsIn += len(rows)
		for _, r := range rows {
			if n%256 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			n, width = n+1, len(r)
			vals = append(vals, r...)
		}
	}
	j.build = fileRows(cutRows(vals, n, width), j.rightCol)
	j.stats.HeldRows = n
	return nil
}

// Next implements Operator: pulls probe batches until matches
// accumulate, then emits them in MaxBatchRows chunks.
func (j *HashJoin) Next() ([]table.Row, error) {
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
		rows, err := j.left.Next()
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
			j.build.join(&j.out, pr, pr[j.leftCol])
		}
	}
	out := j.out.next()
	j.stats.emitted(out)
	return out, nil
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.open = false
	j.build = keyedRows{}
	j.out = joinOut{}
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
