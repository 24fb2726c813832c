package exec

import (
	"context"
	"fmt"
	"sort"
	"time"

	"xst/internal/core"
	"xst/internal/table"
)

// Sort materializes its input — the final sanctioned materialization —
// orders it by one column under the canonical order, and emits it in
// MaxBatchRows chunks.
type Sort struct {
	child Operator
	col   int
	desc  bool
	queue []table.Row
	stats OpStats
	open  bool
}

// NewSort orders child rows by column col (descending if desc).
func NewSort(child Operator, col int, desc bool) *Sort {
	return &Sort{child: child, col: col, desc: desc}
}

// Open implements Operator, buffering and sorting the whole child
// stream; batches are copied out of child scratch (see keep) and the
// context is polled once per batch.
func (s *Sort) Open(ctx context.Context) error {
	s.stats = OpStats{}
	defer s.stats.timed(time.Now())
	s.open = true
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	s.queue = s.queue[:0]
	for {
		rows, err := s.child.Next()
		if err != nil {
			return err
		}
		if rows == nil {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		s.stats.RowsIn += len(rows)
		s.queue = append(s.queue, keep(s.child, rows)...)
	}
	s.stats.HeldRows = len(s.queue)
	col, desc := s.col, s.desc
	sort.SliceStable(s.queue, func(i, j int) bool {
		c := core.Compare(s.queue[i][col], s.queue[j][col])
		if desc {
			return c > 0
		}
		return c < 0
	})
	return nil
}

// Next implements Operator.
func (s *Sort) Next() ([]table.Row, error) {
	defer s.stats.timed(time.Now())
	if !s.open {
		return nil, errOpen(s)
	}
	if len(s.queue) == 0 {
		return nil, nil
	}
	n := min(len(s.queue), MaxBatchRows)
	out := s.queue[:n]
	s.queue = s.queue[n:]
	s.stats.emitted(out)
	return out, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.open = false
	s.queue = nil
	return s.child.Close()
}

// OutSchema implements Operator.
func (s *Sort) OutSchema() table.Schema { return s.child.OutSchema() }

// Stats implements Operator.
func (s *Sort) Stats() OpStats { return s.stats }

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.child} }

func (s *Sort) String() string {
	dir := "asc"
	if s.desc {
		dir = "desc"
	}
	return fmt.Sprintf("sort[%s %s]", s.child.OutSchema().Cols[s.col], dir)
}

// Limit passes through at most n rows, then stops pulling its child —
// the streaming form of a cutoff: upstream work past the limit never
// happens.
type Limit struct {
	child Operator
	n     int
	left  int
	stats OpStats
	open  bool
}

// NewLimit caps child output at n rows.
func NewLimit(child Operator, n int) *Limit {
	return &Limit{child: child, n: n}
}

// Open implements Operator.
func (l *Limit) Open(ctx context.Context) error {
	l.stats = OpStats{}
	defer l.stats.timed(time.Now())
	l.left = l.n
	l.open = true
	return l.child.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next() ([]table.Row, error) {
	defer l.stats.timed(time.Now())
	if !l.open {
		return nil, errOpen(l)
	}
	if l.left <= 0 {
		return nil, nil
	}
	rows, err := l.child.Next()
	if err != nil || rows == nil {
		return nil, err
	}
	l.stats.RowsIn += len(rows)
	if len(rows) > l.left {
		rows = rows[:l.left]
	}
	l.left -= len(rows)
	l.stats.emitted(rows)
	return rows, nil
}

// Close implements Operator.
func (l *Limit) Close() error {
	l.open = false
	return l.child.Close()
}

// OutSchema implements Operator.
func (l *Limit) OutSchema() table.Schema { return l.child.OutSchema() }

// Stats implements Operator.
func (l *Limit) Stats() OpStats { return l.stats }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.child} }

func (l *Limit) String() string { return fmt.Sprintf("limit[%d]", l.n) }
