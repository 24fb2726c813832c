package exec

import (
	"context"
	"fmt"
	"time"

	"xst/internal/core"
	"xst/internal/table"
)

// Filter is a compiled predicate over a batch's columns: given the
// candidate rows sel (ascending indexes into b), it returns those that
// pass, compacted into sel's array. plan.CompilePred lowers a plan
// predicate to one.
type Filter func(b *table.Batch, sel []int32) []int32

// Op is one set-at-a-time stage: a whole batch in, a whole batch out.
// Each op is the executable form of one XST operation on the stored
// extended set: Restrict is the σ-Restriction (Def 7.6), Project the
// σ-Domain (Def 7.4), Distinct canonicalization (duplicate members
// collapse) — TestTreeMatchesAlgebra pins the first two.
type Op interface {
	// Process filters/transforms a batch. It may return the input batch
	// when nothing changes, or reuse scratch space; callers must not
	// retain the output across calls.
	Process(b *table.Batch) *table.Batch
	// OutSchema maps the input schema to the output schema.
	OutSchema(in table.Schema) table.Schema
	// String names the stage with its XST reading.
	String() string
}

// Restrict is the σ-Restriction stage: the filter selects, and the
// survivors are gathered into the stage's own batch.
type Restrict struct {
	Filter Filter
	Name   string // display label, e.g. "city = chicago"
	sel    []int32
	out    table.Batch
}

// Process implements Op.
func (r *Restrict) Process(b *table.Batch) *table.Batch {
	if cap(r.sel) < b.Len {
		r.sel = make([]int32, b.Len)
	}
	sel := r.sel[:b.Len]
	for i := range sel {
		sel[i] = int32(i)
	}
	sel = r.Filter(b, sel)
	if len(sel) == b.Len {
		return b
	}
	r.out.Gather(b, sel)
	return &r.out
}

// OutSchema implements Op.
func (r *Restrict) OutSchema(in table.Schema) table.Schema { return in }

func (r *Restrict) String() string { return fmt.Sprintf("restrict[%s]", r.Name) }

// Project is the σ-Domain stage keeping the given positions (0-based):
// its batch re-points column headers at the input's arrays.
type Project struct {
	Cols []int
	out  table.Batch
}

// Process implements Op.
func (p *Project) Process(b *table.Batch) *table.Batch {
	p.out.Len = b.Len
	if p.out.Cols == nil {
		p.out.Cols = make([]table.Col, 0, len(p.Cols))
	}
	p.out.Cols = p.out.Cols[:0]
	for _, c := range p.Cols {
		p.out.Cols = append(p.out.Cols, b.Cols[c])
	}
	return &p.out
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
// seen are kept in one batch and filed under a fold of their values'
// digests.
type Distinct struct {
	seen  core.Chains
	kept  table.Batch // id's row is row id of kept
	fresh []int32
	out   table.Batch
}

// Process implements Op.
func (d *Distinct) Process(b *table.Batch) *table.Batch {
	fresh := d.fresh[:0]
rows:
	for i := 0; i < b.Len; i++ {
		h := uint64(len(b.Cols)) + 0x9e3779b97f4a7c15
		for c := range b.Cols {
			h = (h ^ b.Cols[c].Digest(i)) * 0x100000001b3
		}
		h &= digestMask
		for id := d.seen.First(h); id >= 0; id = d.seen.Next(id) {
			if d.sameRow(b, i, int(id)) {
				continue rows
			}
		}
		d.seen.Add(h)
		fresh = append(fresh, int32(i))
		d.kept.AppendSel(b, fresh[len(fresh)-1:])
	}
	d.fresh = fresh
	if len(fresh) == b.Len {
		return b
	}
	d.out.Gather(b, fresh)
	return &d.out
}

// sameRow reports whether row i of b equals kept row id.
func (d *Distinct) sameRow(b *table.Batch, i, id int) bool {
	for c := range b.Cols {
		if !b.Cols[c].Equal(i, &d.kept.Cols[c], id) {
			return false
		}
	}
	return true
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
func (s *Stage) Next() (*table.Batch, error) {
	defer s.stats.timed(time.Now())
	if !s.open {
		return nil, errOpen(s)
	}
	for {
		b, err := s.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		s.stats.RowsIn += b.Len
		out := s.op.Process(b)
		if out.Len == 0 {
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
