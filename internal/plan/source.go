package plan

import (
	"fmt"
	"strings"

	"xst/internal/exec"
	"xst/internal/table"
)

// Planner-extension leaves: Source lets an outer planner (the
// federation coordinator, internal/fed) splice an arbitrary operator
// constructor into a logical plan as a leaf, so the coordinator-side
// remainder of a distributed query — merge aggregation, sorting, final
// joins — compiles through the same Compile path as a local plan.
// Rename relabels columns positionally, restoring user-visible names
// above a merge step whose aggregate columns carry partial-form names.

// Source is a leaf whose rows come from a caller-supplied operator
// constructor rather than a stored table. New is invoked once per
// compilation (the exec tree contract is single-use), so a Source's
// closure may carry per-query state such as a network scatter.
type Source struct {
	// Sch is the declared output schema of the constructed operator.
	Sch table.Schema
	// Rows is the cardinality Catalog.Estimate reports for the leaf,
	// letting ChooseJoinSides see through it.
	Rows float64
	// Label renders the leaf in plans, EXPLAIN output and span trees.
	Label string
	// New constructs the physical operator.
	New func() (exec.Operator, error)
}

// Schema implements Node.
func (s *Source) Schema() table.Schema { return s.Sch }

func (s *Source) String() string { return s.Label }

// Rename passes its child through with output columns relabelled
// positionally; Cols must match the child's arity.
type Rename struct {
	Child Node
	Cols  []string
}

// Schema implements Node.
func (r *Rename) Schema() table.Schema {
	in := r.Child.Schema()
	return table.Schema{Name: in.Name, Cols: append([]string(nil), r.Cols...)}
}

func (r *Rename) String() string {
	return fmt.Sprintf("rename[%s](%v)", strings.Join(r.Cols, ","), r.Child)
}
