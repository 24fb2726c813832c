package plan

// Regression tests for the compile-error unwind leaks xstvet's opclose
// analyzer surfaced: a Compile arm that fails after building a child
// must Close the half-built subtree, or a federation Source leaf keeps
// its scatter state (connections, watchdogs) alive with nothing left to
// release it.

import (
	"context"
	"testing"

	"xst/internal/exec"
	"xst/internal/table"
)

// closeCountOp is a leaf operator that counts Close calls.
type closeCountOp struct {
	sch    table.Schema
	closed int
}

func (c *closeCountOp) Open(ctx context.Context) error { return nil }
func (c *closeCountOp) Next() (*table.Batch, error)    { return nil, nil }
func (c *closeCountOp) Close() error                   { c.closed++; return nil }
func (c *closeCountOp) OutSchema() table.Schema        { return c.sch }
func (c *closeCountOp) Stats() exec.OpStats            { return exec.OpStats{} }
func (c *closeCountOp) Children() []exec.Operator      { return nil }
func (c *closeCountOp) String() string                 { return "closecount" }

// countedLeaf returns a counting operator and a Source leaf that
// compiles to it.
func countedLeaf(name string, cols ...string) (*closeCountOp, *Source) {
	op := &closeCountOp{sch: table.Schema{Name: name, Cols: cols}}
	return op, &Source{
		Sch:   op.sch,
		Rows:  1,
		Label: name,
		New:   func() (exec.Operator, error) { return op, nil },
	}
}

// mustFailClosed compiles a plan expected to fail and asserts every
// given leaf was closed exactly once by the unwind.
func mustFailClosed(t *testing.T, n Node, leaves ...*closeCountOp) {
	t.Helper()
	if op, err := Compile(n); err == nil {
		op.Close()
		t.Fatalf("Compile(%v) succeeded, want error", n)
	}
	for i, l := range leaves {
		if l.closed != 1 {
			t.Errorf("leaf %d (%s) closed %d times after failed compile, want 1", i, l.sch.Name, l.closed)
		}
	}
}

func TestCompileRenameArityErrorClosesChild(t *testing.T) {
	op, src := countedLeaf("t", "a", "b")
	mustFailClosed(t, &Rename{Child: src, Cols: []string{"only"}}, op)
}

func TestCompileJoinColumnErrorClosesChildren(t *testing.T) {
	lop, lsrc := countedLeaf("l", "a")
	rop, rsrc := countedLeaf("r", "b")
	mustFailClosed(t, &Join{Left: lsrc, Right: rsrc, LeftCol: "missing", RightCol: "b"}, lop, rop)

	lop2, lsrc2 := countedLeaf("l", "a")
	rop2, rsrc2 := countedLeaf("r", "b")
	mustFailClosed(t, &Join{Left: lsrc2, Right: rsrc2, LeftCol: "a", RightCol: "missing"}, lop2, rop2)
}

func TestCompileSortColumnErrorClosesChild(t *testing.T) {
	op, src := countedLeaf("t", "a")
	mustFailClosed(t, &Sort{Child: src, Col: "missing"}, op)
}

func TestCompileGroupByErrorClosesChild(t *testing.T) {
	op, src := countedLeaf("t", "a", "b")
	mustFailClosed(t, &GroupBy{Child: src, Key: "missing"}, op)

	op2, src2 := countedLeaf("t", "a", "b")
	mustFailClosed(t, &GroupBy{Child: src2, Key: "a", Aggs: []AggSpec{{Kind: exec.AggSum, Col: "missing"}}}, op2)
}

// TestCompileDOPSortColumnErrorClosesChild drives the same unwind at
// four workers, where the Source leaf below the sort runs on one.
func TestCompileDOPSortColumnErrorClosesChild(t *testing.T) {
	op, src := countedLeaf("t", "a")
	if cop, err := CompileDOP(&Sort{Child: src, Col: "missing"}, 4); err == nil {
		cop.Close()
		t.Fatal("CompileDOP succeeded, want error")
	}
	if op.closed != 1 {
		t.Errorf("leaf closed %d times after failed CompileDOP, want 1", op.closed)
	}
}
