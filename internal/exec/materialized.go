package exec

import (
	"context"
	"time"

	"xst/internal/table"
)

// Materialized is a leaf over rows computed whole when it opens: a
// system view's current state, or a fragment the federation coordinator
// has already gathered. Open calls fetch; Next emits the rows in
// MaxBatchRows windows, each a fresh batch of boxed columns. fetch must
// return rows the leaf may keep.
type Materialized struct {
	label string
	sch   table.Schema
	fetch func(ctx context.Context) ([]table.Row, error)

	ctx  context.Context
	rows []table.Row
	open bool
	st   OpStats
}

// NewMaterialized returns a leaf with output schema sch that EXPLAIN and
// span trees print as label.
func NewMaterialized(label string, sch table.Schema, fetch func(ctx context.Context) ([]table.Row, error)) *Materialized {
	return &Materialized{label: label, sch: sch, fetch: fetch}
}

// Open fetches the rows.
func (m *Materialized) Open(ctx context.Context) error {
	defer m.st.timed(time.Now())
	m.st = OpStats{}
	rows, err := m.fetch(ctx)
	if err != nil {
		return err
	}
	m.ctx, m.rows, m.open = ctx, rows, true
	m.st.HeldRows = len(rows)
	return nil
}

// Next emits the next window of the fetched rows.
func (m *Materialized) Next() (*table.Batch, error) {
	if !m.open {
		return nil, errOpen(m)
	}
	if err := m.ctx.Err(); err != nil {
		return nil, err
	}
	out := nextChunk(&m.rows, m.sch.Arity())
	if out != nil {
		m.st.emitted(out)
	}
	return out, nil
}

// Close drops the rows.
func (m *Materialized) Close() error {
	m.rows, m.open = nil, false
	return nil
}

// OutSchema implements Operator.
func (m *Materialized) OutSchema() table.Schema { return m.sch }

// Stats implements Operator.
func (m *Materialized) Stats() OpStats { return m.st }

// Children implements Operator.
func (m *Materialized) Children() []Operator { return nil }

func (m *Materialized) String() string { return m.label }
