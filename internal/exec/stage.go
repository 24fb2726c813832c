package exec

import (
	"context"
	"fmt"
	"slices"
	"time"

	"xst/internal/core"
	"xst/internal/table"
)

// Pred is a row predicate shared with the batch operators.
type Pred func(table.Row) bool

// Op is one set-at-a-time stage: a whole batch in, a whole batch out.
// Each op is the executable form of one XST operation on the stored
// extended set: Restrict is the σ-Restriction (Def 7.6), Project the
// σ-Domain (Def 7.4), Distinct canonicalization (duplicate members
// collapse) — TestTreeMatchesAlgebra pins the first two.
type Op interface {
	// Process filters/transforms a batch. It may return the input slice
	// when nothing changes, or reuse scratch space; callers must not
	// retain the output across calls.
	Process(rows []table.Row) []table.Row
	// OutSchema maps the input schema to the output schema.
	OutSchema(in table.Schema) table.Schema
	// String names the stage with its XST reading.
	String() string
}

// Restrict is the σ-Restriction stage.
type Restrict struct {
	Pred Pred
	Name string // display label, e.g. "city = chicago"
	out  []table.Row
}

// Process implements Op with a selection loop over the batch.
func (r *Restrict) Process(rows []table.Row) []table.Row {
	out := r.out[:0]
	for _, row := range rows {
		if r.Pred(row) {
			out = append(out, row)
		}
	}
	r.out = out
	return out
}

// OutSchema implements Op.
func (r *Restrict) OutSchema(in table.Schema) table.Schema { return in }

func (r *Restrict) String() string { return fmt.Sprintf("restrict[%s]", r.Name) }

// Project is the σ-Domain stage keeping the given positions (0-based).
type Project struct {
	Cols []int
	out  []table.Row
	buf  []core.Value
}

// Process implements Op.
func (p *Project) Process(rows []table.Row) []table.Row {
	out := p.out[:0]
	need := len(rows) * len(p.Cols)
	if cap(p.buf) < need {
		p.buf = make([]core.Value, need)
	}
	buf := p.buf[:0]
	for _, row := range rows {
		start := len(buf)
		for _, c := range p.Cols {
			buf = append(buf, row[c])
		}
		out = append(out, table.Row(buf[start:len(buf):len(buf)]))
	}
	p.out, p.buf = out, buf
	return out
}

// OutSchema implements Op.
func (p *Project) OutSchema(in table.Schema) table.Schema {
	cols := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = in.Cols[c]
	}
	return table.Schema{Name: in.Name, Cols: cols}
}

func (p *Project) String() string { return fmt.Sprintf("project%v", p.Cols) }

// Distinct collapses duplicate rows (set semantics). The rows it has
// seen are kept back to back in one value slab — rows of one stream
// share a width — and filed under a fold of their values' digests.
type Distinct struct {
	seen core.Chains
	vals []core.Value // id's row is vals[id·w : (id+1)·w]
	out  []table.Row
}

// Process implements Op.
func (d *Distinct) Process(rows []table.Row) []table.Row {
	out := d.out[:0]
rows:
	for _, row := range rows {
		w := len(row)
		h := uint64(w) + 0x9e3779b97f4a7c15
		for _, v := range row {
			h = (h ^ core.Digest(v)) * 0x100000001b3
		}
		h &= digestMask
		for id := d.seen.First(h); id >= 0; id = d.seen.Next(id) {
			if slices.EqualFunc(row, d.vals[int(id)*w:int(id+1)*w], core.Equal) {
				continue rows
			}
		}
		d.seen.Add(h)
		d.vals = append(d.vals, row...)
		out = append(out, row)
	}
	d.out = out
	return out
}

// OutSchema implements Op.
func (d *Distinct) OutSchema(in table.Schema) table.Schema { return in }

func (d *Distinct) String() string { return "distinct" }

// Stage lifts one batch-at-a-time Op (Restrict, Project, Distinct)
// into the operator tree: each Next pulls child batches until the op
// yields a non-empty output batch. The op's scratch-reuse contract
// carries over — output batches are invalidated by the next Next.
//
// Stateful ops (Distinct's seen-set) make a Stage single-use: build
// a fresh tree per execution rather than reopening one.
type Stage struct {
	op    Op
	child Operator
	stats OpStats
	open  bool
}

// NewStage wraps op over child.
func NewStage(op Op, child Operator) *Stage {
	return &Stage{op: op, child: child}
}

// NewStages stacks ops on child in order, one Stage each: a single
// pass in which every batch flows through the whole chain.
func NewStages(child Operator, ops ...Op) Operator {
	if len(ops) == 0 {
		return child
	}
	return NewStages(NewStage(ops[0], child), ops[1:]...)
}

// Open implements Operator.
func (s *Stage) Open(ctx context.Context) error {
	s.stats = OpStats{}
	defer s.stats.timed(time.Now())
	s.open = true
	return s.child.Open(ctx)
}

// Next implements Operator.
func (s *Stage) Next() ([]table.Row, error) {
	defer s.stats.timed(time.Now())
	if !s.open {
		return nil, errOpen(s)
	}
	for {
		rows, err := s.child.Next()
		if err != nil || rows == nil {
			return nil, err
		}
		s.stats.RowsIn += len(rows)
		out := s.op.Process(rows)
		if len(out) == 0 {
			continue
		}
		s.stats.emitted(out)
		return out, nil
	}
}

// Close implements Operator.
func (s *Stage) Close() error {
	s.open = false
	return s.child.Close()
}

// OutSchema implements Operator.
func (s *Stage) OutSchema() table.Schema {
	return s.op.OutSchema(s.child.OutSchema())
}

// Stats implements Operator.
func (s *Stage) Stats() OpStats { return s.stats }

// Children implements Operator.
func (s *Stage) Children() []Operator { return []Operator{s.child} }

func (s *Stage) String() string { return s.op.String() }
