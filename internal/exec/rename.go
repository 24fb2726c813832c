package exec

import (
	"context"
	"strings"

	"xst/internal/table"
)

// Rename passes its child's batches through untouched but reports a
// schema with the columns relabelled positionally. The federation
// coordinator uses it above a merge aggregation whose columns carry
// partial-form names (e.g. sum(count)) to restore the names the user's
// query produces.
type Rename struct {
	child Operator
	cols  []string
	stats OpStats
	open  bool
}

// NewRename relabels child's output columns; len(cols) must equal the
// child's arity (checked by plan.Compile).
func NewRename(child Operator, cols []string) *Rename {
	return &Rename{child: child, cols: append([]string(nil), cols...)}
}

// Open implements Operator.
func (r *Rename) Open(ctx context.Context) error {
	r.stats = OpStats{}
	r.open = true
	return r.child.Open(ctx)
}

// Next implements Operator.
func (r *Rename) Next() (*table.Batch, error) {
	if !r.open {
		return nil, errOpen(r)
	}
	b, err := r.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	r.stats.RowsIn += b.Len
	r.stats.emitted(b)
	return b, nil
}

// Close implements Operator.
func (r *Rename) Close() error {
	r.open = false
	return r.child.Close()
}

// OutSchema implements Operator.
func (r *Rename) OutSchema() table.Schema {
	return table.Schema{Name: r.child.OutSchema().Name, Cols: r.cols}
}

// Stats implements Operator.
func (r *Rename) Stats() OpStats { return r.stats }

// Children implements Operator.
func (r *Rename) Children() []Operator { return []Operator{r.child} }

func (r *Rename) String() string { return "rename[" + strings.Join(r.cols, ",") + "]" }
