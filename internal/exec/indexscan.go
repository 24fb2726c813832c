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
	desc           string

	ctx   context.Context
	src   *table.Table // tab, possibly pinned to the Open ctx's view
	rids  []store.RID
	pos   int
	buf   []table.Row
	stats OpStats
	open  bool
}

// NewHashIndexScan returns a point-lookup scan of t through hash index
// idx: rows whose indexed column equals key. desc labels the choice in
// plans and traces (e.g. "events.id=42").
func NewHashIndexScan(t *table.Table, idx *index.HashIndex, key core.Value, desc string) *IndexScan {
	return &IndexScan{tab: t, hash: idx, eq: key, desc: desc}
}

// NewBTreeIndexScan returns a range scan of t through btree idx: rows
// whose indexed column lies between lo and hi (each bound optional when
// nil, inclusive when its flag is set). Bounds must be atoms.
func NewBTreeIndexScan(t *table.Table, idx *index.BTree, lo, hi core.Value, loIncl, hiIncl bool, desc string) *IndexScan {
	return &IndexScan{tab: t, bt: idx, lo: lo, hi: hi, loIncl: loIncl, hiIncl: hiIncl, desc: desc}
}

// Open implements Operator, resolving the lookup to a RID list.
func (s *IndexScan) Open(ctx context.Context) error {
	s.stats = OpStats{}
	defer s.stats.timed(time.Now())
	s.ctx = ctx
	s.src = s.tab
	if v := store.ViewFrom(ctx); v != nil {
		s.src = s.tab.At(v)
	}
	s.rids = s.rids[:0]
	s.pos = 0
	s.open = true
	if s.hash != nil {
		s.rids = append(s.rids, s.hash.Lookup(core.Key(s.eq))...)
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

// Next implements Operator, fetching up to MaxBatchRows rows by RID.
func (s *IndexScan) Next() ([]table.Row, error) {
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
	s.buf = s.buf[:0]
	for _, rid := range s.rids[s.pos : s.pos+n] {
		r, err := s.src.Get(rid)
		if err != nil {
			return nil, err
		}
		s.buf = append(s.buf, r)
	}
	s.pos += n
	s.stats.RowsIn += n
	s.stats.emitted(s.buf)
	return s.buf, nil
}

// Close implements Operator.
func (s *IndexScan) Close() error {
	s.open = false
	s.src = nil
	s.rids = nil
	s.buf = nil
	return nil
}

// OutSchema implements Operator.
func (s *IndexScan) OutSchema() table.Schema { return s.tab.Schema() }

// Stats implements Operator.
func (s *IndexScan) Stats() OpStats { return s.stats }

// Children implements Operator.
func (s *IndexScan) Children() []Operator { return nil }

func (s *IndexScan) String() string { return "indexscan(" + s.desc + ")" }
