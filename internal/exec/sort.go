package exec

import (
	"context"
	"fmt"
	"sort"
	"time"

	"xst/internal/table"
)

// Sort materializes its input — the final sanctioned materialization —
// into one batch, orders a permutation of its rows by one column under
// the canonical order, and emits it in MaxBatchRows chunks.
type Sort struct {
	child Operator
	col   int
	desc  bool
	all   table.Batch
	perm  []int32
	out   table.Batch
	stats OpStats
	open  bool
}

// NewSort orders child rows by column col (descending if desc).
func NewSort(child Operator, col int, desc bool) *Sort {
	return &Sort{child: child, col: col, desc: desc}
}

// Open implements Operator, buffering and sorting the whole child
// stream; batches are copied out of child scratch into one batch and
// the context is polled once per batch.
func (s *Sort) Open(ctx context.Context) error {
	s.stats = OpStats{}
	defer s.stats.timed(time.Now())
	s.open = true
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	s.all.Reset()
	for {
		b, err := s.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		s.stats.RowsIn += b.Len
		s.all.AppendSel(b, nil)
	}
	s.stats.HeldRows = s.all.Len
	s.perm = s.perm[:0]
	for i := 0; i < s.all.Len; i++ {
		s.perm = append(s.perm, int32(i))
	}
	if s.all.Len > 0 {
		col := &s.all.Cols[s.col]
		sort.SliceStable(s.perm, func(i, j int) bool {
			c := col.CompareAt(int(s.perm[i]), col, int(s.perm[j]))
			if s.desc {
				return c > 0
			}
			return c < 0
		})
	}
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (*table.Batch, error) {
	defer s.stats.timed(time.Now())
	if !s.open {
		return nil, errOpen(s)
	}
	if len(s.perm) == 0 {
		return nil, nil
	}
	n := min(len(s.perm), MaxBatchRows)
	s.out.Gather(&s.all, s.perm[:n])
	s.perm = s.perm[n:]
	s.stats.emitted(&s.out)
	return &s.out, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.open = false
	s.all, s.perm, s.out = table.Batch{}, nil, table.Batch{}
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
	out   table.Batch
	head  []int32
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
func (l *Limit) Next() (*table.Batch, error) {
	defer l.stats.timed(time.Now())
	if !l.open {
		return nil, errOpen(l)
	}
	if l.left <= 0 {
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	l.stats.RowsIn += b.Len
	if b.Len > l.left {
		for i := int32(len(l.head)); i < int32(l.left); i++ {
			l.head = append(l.head, i)
		}
		l.out.Gather(b, l.head[:l.left])
		b = &l.out
	}
	l.left -= b.Len
	l.stats.emitted(b)
	return b, nil
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
