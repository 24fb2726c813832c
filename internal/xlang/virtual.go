package xlang

import (
	"xst/internal/exec"
	"xst/internal/table"
)

// VirtualTable is an on-demand computed relation: a table whose rows
// are produced by a fresh operator constructed per query rather than
// read from stored pages. The `__sys.*` system views (internal/sysview)
// are the canonical implementations — the engine's own state exposed as
// sets queryable through the same `from …` algebra as stored data, per
// the intensional-set reading {x ∈ __sys.queries : P(x)}.
//
// A virtual table enters the logical plan as a plan.Source leaf, so
// selection, projection, joins against stored tables, aggregation and
// the whole optimizer apply unchanged. Rows are computed when the
// operator opens — every query sees the state as of its own execution.
type VirtualTable interface {
	// Schema is the fixed output schema, known at bind time so column
	// references typecheck exactly like a stored table's.
	Schema() table.Schema
	// EstRows is the planner's cardinality guess for the view.
	EstRows() float64
	// NewOp constructs a fresh, single-use operator producing the rows.
	NewOp() (exec.Operator, error)
}

// BindVirtual registers a computed table for query statements. Virtual
// names are consulted after stored tables, so a stored table shadows a
// virtual of the same name.
func (e *Env) BindVirtual(name string, v VirtualTable) { e.virtuals[name] = v }

// Virtual fetches a table bound with BindVirtual.
func (e *Env) Virtual(name string) (VirtualTable, bool) {
	v, ok := e.virtuals[name]
	return v, ok
}
