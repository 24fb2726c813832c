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
// the same two slabs, so a batch is scratch until the next Next like
// any other operator's, and positions outside need are nil.
type Scan struct {
	tab   *table.Table
	need  []bool
	cur   *table.BatchCursor
	ctx   context.Context
	pend  []table.Row
	stats OpStats
	open  bool
}

// NewScan returns a scan operator over t that decodes the column
// positions need marks (nil: all) and leaves the others nil — the
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
	s.pend = nil
	s.open = true
	return ctx.Err()
}

// Next implements Operator, emitting one page of rows (split into
// MaxBatchRows chunks if a page somehow exceeds the cap).
func (s *Scan) Next() ([]table.Row, error) {
	defer s.stats.timed(time.Now())
	if !s.open {
		return nil, errOpen(s)
	}
	for {
		if len(s.pend) > 0 {
			n := min(len(s.pend), MaxBatchRows)
			out := s.pend[:n]
			s.pend = s.pend[n:]
			s.stats.emitted(out)
			return out, nil
		}
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		_, rows, ok, err := s.cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		s.stats.RowsIn += len(rows)
		s.pend = rows
	}
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.open = false
	s.cur = nil
	s.pend = nil
	return nil
}

// OutSchema implements Operator.
func (s *Scan) OutSchema() table.Schema { return s.tab.Schema() }

// Stats implements Operator.
func (s *Scan) Stats() OpStats { return s.stats }

// Children implements Operator.
func (s *Scan) Children() []Operator { return nil }

func (s *Scan) String() string { return "scan(" + s.tab.Schema().Name + ")" }
