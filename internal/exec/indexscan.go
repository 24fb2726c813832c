package exec

import (
	"context"
	"fmt"
	"time"

	"xst/internal/core"
	"xst/internal/index"
	"xst/internal/store"
	"xst/internal/table"
)

// indexPollEvery bounds how many index keys a range walk visits between
// context polls while gathering RIDs at Open.
const indexPollEvery = 256

// IndexScan fetches rows by record id through a prestructured access
// path instead of walking the heap: a hash index answers point lookups,
// a btree answers ordered ranges (lo/hi under core.OrderKey, so only
// atom bounds are legal — the planner gates on that). RIDs are gathered
// at Open (polling the context during long range walks) and fetched in
// MaxBatchRows batches at Next, so peak intermediate rows stay bounded
// by the batch cap like every other operator.
type IndexScan struct {
	tab  *table.Table
	hash *index.HashIndex
	bt   *index.BTree

	eq             core.Value // hash point key
	lo, hi         core.Value // btree range bounds (nil = open)
	loIncl, hiIncl bool
	desc           fmt.Stringer
	need           []bool

	ctx   context.Context
	rids  []store.RID
	pos   int
	out   table.Batch
	stats OpStats
	open  bool
}

// NewHashIndexScan returns a point-lookup scan of t through hash index
// idx: rows whose indexed column equals key. desc labels the choice in
// plans and traces (e.g. "events.id=42"), rendered only when they ask,
// so an untraced statement never formats it. need marks the positions
// to decode, as for NewScan.
func NewHashIndexScan(t *table.Table, idx *index.HashIndex, key core.Value, desc fmt.Stringer, need []bool) *IndexScan {
	return &IndexScan{tab: t, hash: idx, eq: key, desc: desc, need: need}
}

// NewBTreeIndexScan returns a range scan of t through btree idx: rows
// whose indexed column lies between lo and hi (each bound optional when
// nil, inclusive when its flag is set). Bounds must be atoms.
func NewBTreeIndexScan(t *table.Table, idx *index.BTree, lo, hi core.Value, loIncl, hiIncl bool, desc fmt.Stringer, need []bool) *IndexScan {
	return &IndexScan{tab: t, bt: idx, lo: lo, hi: hi, loIncl: loIncl, hiIncl: hiIncl, desc: desc, need: need}
}

// Open implements Operator, resolving the lookup to a RID list.
func (s *IndexScan) Open(ctx context.Context) error {
	s.stats = OpStats{}
	defer s.stats.timed(time.Now())
	s.ctx = ctx
	s.rids = s.rids[:0]
	s.pos = 0
	s.open = true
	if s.hash != nil {
		s.rids = s.hash.Probe(s.rids, s.eq)
		return ctx.Err()
	}
	lo, hi, err := s.rangeKeys()
	if err != nil {
		return err
	}
	steps := 0
	s.bt.Range(lo, hi, func(_ string, rids []store.RID) bool {
		steps++
		if steps%indexPollEvery == 0 && ctx.Err() != nil {
			return false
		}
		s.rids = append(s.rids, rids...)
		return true
	})
	return ctx.Err()
}

// rangeKeys maps the value bounds onto BTree.Range's half-open string
// interval. OrderKey strings are standalone, so the smallest key above
// OrderKey(v) is OrderKey(v)+"\x00": appending it turns an exclusive lo
// or an inclusive hi into the right half-open bound.
func (s *IndexScan) rangeKeys() (lo, hi string, err error) {
	if s.lo != nil {
		if s.lo.Kind() == core.KindSet {
			return "", "", fmt.Errorf("exec: indexscan bound %v is not an atom", s.lo)
		}
		lo = core.OrderKey(s.lo)
		if !s.loIncl {
			lo += "\x00"
		}
	}
	if s.hi != nil {
		if s.hi.Kind() == core.KindSet {
			return "", "", fmt.Errorf("exec: indexscan bound %v is not an atom", s.hi)
		}
		hi = core.OrderKey(s.hi)
		if s.hiIncl {
			hi += "\x00"
		}
	}
	return lo, hi, nil
}

// Next implements Operator, fetching up to MaxBatchRows rows by RID
// into the operator's batch.
func (s *IndexScan) Next() (*table.Batch, error) {
	defer s.stats.timed(time.Now())
	if !s.open {
		return nil, errOpen(s)
	}
	if s.pos >= len(s.rids) {
		return nil, nil
	}
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	n := min(len(s.rids)-s.pos, MaxBatchRows)
	if err := s.tab.Fetch(s.rids[s.pos:s.pos+n], &s.out, s.need); err != nil {
		return nil, err
	}
	s.pos += n
	s.stats.RowsIn += n
	s.stats.emitted(&s.out)
	return &s.out, nil
}

// Close implements Operator.
func (s *IndexScan) Close() error {
	s.open = false
	s.rids = nil
	s.out = table.Batch{}
	return nil
}

// OutSchema implements Operator.
func (s *IndexScan) OutSchema() table.Schema { return s.tab.Schema() }

// Stats implements Operator.
func (s *IndexScan) Stats() OpStats { return s.stats }

// Children implements Operator.
func (s *IndexScan) Children() []Operator { return nil }

func (s *IndexScan) String() string { return "indexscan(" + s.desc.String() + ")" }
