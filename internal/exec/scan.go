package exec

import (
	"context"
	"time"

	"xst/internal/store"
	"xst/internal/table"
)

// Scan streams a stored table page batch by page batch through a
// table.BatchCursor — the pull form of the set-processing access path.
// The consumer paces the scan: one page is pinned, decoded, and
// unpinned per Next, and the stored context is polled per batch so a
// deadline aborts between pages. The cursor decodes every page into
// the same batch, so a batch is scratch until the next Next like any
// other operator's, and positions outside need are ColAbsent. A 4 KiB
// page holds fewer than MaxBatchRows records, so a page is one batch.
type Scan struct {
	tab   *table.Table
	need  []bool
	cur   *table.BatchCursor
	ctx   context.Context
	stats OpStats
	open  bool
}

// NewScan returns a scan operator over t that decodes the column
// positions need marks (nil: all) and leaves the others ColAbsent — the
// planner passes the positions the operators above it read.
func NewScan(t *table.Table, need []bool) *Scan { return &Scan{tab: t, need: need} }

// Open implements Operator. When the context carries a snapshot view
// (store.WithView), the cursor is pinned to that view's commit epoch,
// so the stream returns exactly the rows committed when the view was
// taken even while writers commit new epochs mid-scan.
func (s *Scan) Open(ctx context.Context) error {
	s.stats = OpStats{}
	defer s.stats.timed(time.Now())
	s.ctx = ctx
	tab := s.tab
	if v := store.ViewFrom(ctx); v != nil {
		tab = tab.At(v)
	}
	s.cur = tab.NewBatchCursor(s.need)
	s.open = true
	return ctx.Err()
}

// Next implements Operator, emitting one page of rows.
func (s *Scan) Next() (*table.Batch, error) {
	defer s.stats.timed(time.Now())
	if !s.open {
		return nil, errOpen(s)
	}
	for {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		_, b, ok, err := s.cur.Next()
		if err != nil || !ok {
			return nil, err
		}
		s.stats.RowsIn += b.Len
		if b.Len > 0 {
			s.stats.emitted(b)
			return b, nil
		}
	}
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.open = false
	s.cur = nil
	return nil
}

// OutSchema implements Operator.
func (s *Scan) OutSchema() table.Schema { return s.tab.Schema() }

// Stats implements Operator.
func (s *Scan) Stats() OpStats { return s.stats }

// Children implements Operator.
func (s *Scan) Children() []Operator { return nil }

func (s *Scan) String() string { return "scan(" + s.tab.Schema().Name + ")" }
