// Package plan implements a rule-based query planner over the exec
// operator tree: logical plans (scan / select / project / join) with
// predicates-as-data, algebraic rewrite rules (merge selections, push
// selections below joins, prune columns), and compilation into
// set-at-a-time physical execution. It is the systems-level form of the
// paper's §12 claim — data management behavior expressed algebraically
// can be *optimized* by manipulating the algebra, because every rewrite
// here is justified by an XST identity:
//
//	merge-selects     R |_σ A |_σ B        = R |_σ (A ⊓ B)    (restriction composition)
//	push-select       (F ⋈ G) |_σ A        = (F |_σ A) ⋈ G    when σ only touches F's positions
//	prune-columns     𝔇_τ(F ⋈ G)           = 𝔇_τ(𝔇_τ'(F) ⋈ 𝔇_τ''(G))
package plan

import (
	"cmp"
	"fmt"
	"strings"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/table"
)

// Node is a logical plan operator. Plans are immutable trees; rewrites
// build new trees.
type Node interface {
	// Schema reports the output schema (column names qualified as the
	// source tables provide them).
	Schema() table.Schema
	// String renders the subtree.
	String() string
}

// Scan reads a stored table.
type Scan struct {
	Table *table.Table
}

// Schema implements Node.
func (s *Scan) Schema() table.Schema { return s.Table.Schema() }

func (s *Scan) String() string { return "scan(" + s.Table.Schema().Name + ")" }

// Select filters by a predicate expression.
type Select struct {
	Child Node
	Pred  Pred
}

// Schema implements Node.
func (s *Select) Schema() table.Schema { return s.Child.Schema() }

func (s *Select) String() string {
	return fmt.Sprintf("select[%v](%v)", s.Pred, s.Child)
}

// Project keeps named columns, in order.
type Project struct {
	Child Node
	Cols  []string
}

// Schema implements Node.
func (p *Project) Schema() table.Schema {
	in := p.Child.Schema()
	return table.Schema{Name: in.Name, Cols: append([]string(nil), p.Cols...)}
}

func (p *Project) String() string {
	return fmt.Sprintf("project[%s](%v)", strings.Join(p.Cols, ","), p.Child)
}

// Join is an equi-join on named columns; output columns are
// left-then-right, with colliding right-side names auto-qualified as
// "table.col" (see table.JoinSchema) so references never silently
// resolve to the wrong side.
type Join struct {
	Left, Right       Node
	LeftCol, RightCol string
}

// Schema implements Node.
func (j *Join) Schema() table.Schema {
	return table.JoinSchema(j.Left.Schema(), j.Right.Schema())
}

func (j *Join) String() string {
	return fmt.Sprintf("join[%s=%s](%v, %v)", j.LeftCol, j.RightCol, j.Left, j.Right)
}

// Distinct collapses duplicate rows (set semantics — canonicalization).
type Distinct struct {
	Child Node
}

// Schema implements Node.
func (d *Distinct) Schema() table.Schema { return d.Child.Schema() }

func (d *Distinct) String() string { return fmt.Sprintf("distinct(%v)", d.Child) }

// Sort orders rows by one column under the canonical value order.
type Sort struct {
	Child Node
	Col   string
	Desc  bool
}

// Schema implements Node.
func (s *Sort) Schema() table.Schema { return s.Child.Schema() }

func (s *Sort) String() string {
	dir := "asc"
	if s.Desc {
		dir = "desc"
	}
	return fmt.Sprintf("sort[%s %s](%v)", s.Col, dir, s.Child)
}

// Limit keeps the first N rows.
type Limit struct {
	Child Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema() table.Schema { return l.Child.Schema() }

func (l *Limit) String() string { return fmt.Sprintf("limit[%d](%v)", l.N, l.Child) }

// AggSpec names one aggregate over a column (Col ignored for Count).
type AggSpec struct {
	Kind exec.AggKind
	Col  string
}

func (a AggSpec) String() string {
	if a.Kind == exec.AggCount {
		return "count"
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Col)
}

// GroupBy groups on a key column and computes aggregates per group;
// output is (key, agg1, agg2, …) in canonical key order.
type GroupBy struct {
	Child Node
	Key   string
	Aggs  []AggSpec
	// Groups is the measured distinct count of Key that OptimizeCatalog
	// sizes the aggregate with, Rows the input's estimate; 0 without them.
	Groups, Rows int
}

// Schema implements Node.
func (g *GroupBy) Schema() table.Schema {
	in := g.Child.Schema()
	cols := make([]string, 0, 1+len(g.Aggs))
	cols = append(cols, g.Key)
	for _, a := range g.Aggs {
		cols = append(cols, a.String())
	}
	return table.Schema{Name: in.Name, Cols: cols}
}

func (g *GroupBy) String() string {
	parts := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		parts[i] = a.String()
	}
	return fmt.Sprintf("group[%s: %s](%v)", g.Key, strings.Join(parts, ","), g.Child)
}

// Pred is a predicate expression the optimizer can inspect: it reports
// which columns it reads, so rewrites can decide which side of a join it
// belongs to. Lowering compiles it once per operator (CompilePred).
type Pred interface {
	// Cols returns the column names the predicate reads.
	Cols() []string
	// filter lowers the predicate against the positions of sch.
	filter(sch table.Schema) exec.Filter
	String() string
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[op]
}

// passes[op][c+1] says whether a comparison whose core.Compare result is
// c satisfies op.
var passes = [...][3]bool{
	Eq: {false, true, false},
	Ne: {true, false, true},
	Lt: {true, false, false},
	Le: {true, true, false},
	Gt: {false, false, true},
	Ge: {false, true, true},
}

// Cmp compares one column against a constant under core.Compare, so
// values of different kinds order by kind rank (bool < int < float <
// string < set) before value: amount < 10.5 holds for every Int amount.
type Cmp struct {
	Col string
	Op  CmpOp
	Val core.Value
}

// Cols implements Pred.
func (c Cmp) Cols() []string { return []string{c.Col} }

// filter implements Pred: the column is resolved here, once, and the
// filter reads it unboxed — an Int column against an Int constant
// compares int64s. A column missing from sch passes no row.
func (c Cmp) filter(sch table.Schema) exec.Filter {
	i := sch.Col(c.Col)
	if i < 0 || int(c.Op) >= len(passes) {
		return func(_ *table.Batch, sel []int32) []int32 { return sel[:0] }
	}
	pass, lit := passes[c.Op], c.Val
	x, isInt := lit.(core.Int)
	return func(b *table.Batch, sel []int32) []int32 {
		col, k := &b.Cols[i], 0
		if col.Kind == table.ColInt && isInt {
			for _, r := range sel {
				if pass[cmp.Compare(col.Ints[r], int64(x))+1] {
					sel[k], k = r, k+1
				}
			}
			return sel[:k]
		}
		for _, r := range sel {
			if pass[col.Compare(int(r), lit)+1] {
				sel[k], k = r, k+1
			}
		}
		return sel[:k]
	}
}

func (c Cmp) String() string { return fmt.Sprintf("%s%v%v", c.Col, c.Op, c.Val) }

// And conjoins predicates.
type And []Pred

// Cols implements Pred.
func (a And) Cols() []string {
	var out []string
	for _, p := range a {
		out = append(out, p.Cols()...)
	}
	return out
}

// filter implements Pred: each conjunct narrows the survivors of the
// one before it.
func (a And) filter(sch table.Schema) exec.Filter {
	fs := make([]exec.Filter, len(a))
	for i, p := range a {
		fs[i] = p.filter(sch)
	}
	return func(b *table.Batch, sel []int32) []int32 {
		for _, f := range fs {
			if len(sel) == 0 {
				break
			}
			sel = f(b, sel)
		}
		return sel
	}
}

func (a And) String() string {
	parts := make([]string, len(a))
	for i, p := range a {
		parts[i] = p.String()
	}
	return strings.Join(parts, "&")
}

// CompilePred lowers p once, with its columns resolved against sch, to
// a filter over batches of rows of that schema. It is the one evaluator
// of predicates: every Restrict lowering builds is one of its filters.
func CompilePred(p Pred, sch table.Schema) exec.Filter { return p.filter(sch) }

// hasCols reports whether every named column exists in the schema.
func hasCols(sch table.Schema, cols []string) bool {
	for _, c := range cols {
		if sch.Col(c) < 0 {
			return false
		}
	}
	return true
}
