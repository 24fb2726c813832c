// Package relational implements the record-at-a-time baseline engine:
// Volcano-style pull iterators (scan, filter, project, nested-loop join,
// hash join, sort, limit, aggregate) over stored tables. Every operator
// moves ONE row per Next call and the table scan touches the buffer pool
// once per record — the "record processing" discipline the paper's set-
// processing thesis argues against. The exec operator tree
// (internal/exec) answers the same queries set-at-a-time; the
// benchmarks compare the two on identical tables.
package relational

import (
	"errors"
	"fmt"
	"sort"

	"xst/internal/core"
	"xst/internal/table"
)

// Iterator is the Volcano operator interface.
type Iterator interface {
	// Open prepares the operator; it must be called before Next.
	Open() error
	// Next produces the next row; ok is false at end of stream.
	Next() (table.Row, bool, error)
	// Close releases resources. Close after Open is mandatory.
	Close() error
	// Schema describes the produced rows.
	Schema() table.Schema
}

// ErrNotOpen reports Next on an unopened iterator.
var ErrNotOpen = errors.New("relational: iterator not open")

// Collect drains an iterator into a slice, handling Open/Close.
func Collect(it Iterator) ([]table.Row, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []table.Row
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// Count drains an iterator and returns the row count.
func Count(it Iterator) (int, error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	defer it.Close()
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// TableScan reads a stored table one record per Next.
type TableScan struct {
	Table  *table.Table
	cursor *table.Cursor
}

// NewTableScan builds a scan over t.
func NewTableScan(t *table.Table) *TableScan { return &TableScan{Table: t} }

// Open implements Iterator.
func (s *TableScan) Open() error {
	s.cursor = s.Table.NewCursor()
	return nil
}

// Next implements Iterator.
func (s *TableScan) Next() (table.Row, bool, error) {
	if s.cursor == nil {
		return nil, false, ErrNotOpen
	}
	_, row, ok, err := s.cursor.Next()
	return row, ok, err
}

// Close implements Iterator.
func (s *TableScan) Close() error {
	s.cursor = nil
	return nil
}

// Schema implements Iterator.
func (s *TableScan) Schema() table.Schema { return s.Table.Schema() }

// Filter passes rows matching a predicate.
type Filter struct {
	Child Iterator
	Pred  Pred
}

// Open implements Iterator.
func (f *Filter) Open() error { return f.Child.Open() }

// Next implements Iterator.
func (f *Filter) Next() (table.Row, bool, error) {
	for {
		r, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if f.Pred(r) {
			return r, true, nil
		}
	}
}

// Close implements Iterator.
func (f *Filter) Close() error { return f.Child.Close() }

// Schema implements Iterator.
func (f *Filter) Schema() table.Schema { return f.Child.Schema() }

// Project keeps the given column indexes, in order.
type Project struct {
	Child Iterator
	Cols  []int
}

// Open implements Iterator.
func (p *Project) Open() error {
	in := p.Child.Schema()
	for _, c := range p.Cols {
		if c < 0 || c >= in.Arity() {
			return fmt.Errorf("relational: project column %d out of range", c)
		}
	}
	return p.Child.Open()
}

// Next implements Iterator.
func (p *Project) Next() (table.Row, bool, error) {
	r, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(table.Row, len(p.Cols))
	for i, c := range p.Cols {
		out[i] = r[c]
	}
	return out, true, nil
}

// Close implements Iterator.
func (p *Project) Close() error { return p.Child.Close() }

// Schema implements Iterator.
func (p *Project) Schema() table.Schema {
	in := p.Child.Schema()
	cols := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = in.Cols[c]
	}
	return table.Schema{Name: in.Name, Cols: cols}
}

// Limit stops after N rows.
type Limit struct {
	Child Iterator
	N     int
	seen  int
}

// Open implements Iterator.
func (l *Limit) Open() error {
	l.seen = 0
	return l.Child.Open()
}

// Next implements Iterator.
func (l *Limit) Next() (table.Row, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	r, ok, err := l.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return r, true, nil
}

// Close implements Iterator.
func (l *Limit) Close() error { return l.Child.Close() }

// Schema implements Iterator.
func (l *Limit) Schema() table.Schema { return l.Child.Schema() }

// Sort materializes the child and emits rows ordered by column Col under
// the canonical value order.
type Sort struct {
	Child Iterator
	Col   int
	rows  []table.Row
	pos   int
}

// Open implements Iterator.
func (s *Sort) Open() error {
	rows, err := Collect(s.Child)
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return core.Compare(rows[i][s.Col], rows[j][s.Col]) < 0
	})
	s.rows = rows
	s.pos = 0
	return nil
}

// Next implements Iterator.
func (s *Sort) Next() (table.Row, bool, error) {
	if s.rows == nil {
		return nil, false, ErrNotOpen
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

// Close implements Iterator.
func (s *Sort) Close() error {
	s.rows = nil
	return nil
}

// Schema implements Iterator.
func (s *Sort) Schema() table.Schema { return s.Child.Schema() }
