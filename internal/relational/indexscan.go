package relational

import (
	"xst/internal/core"
	"xst/internal/index"
	"xst/internal/store"
	"xst/internal/table"
)

// IndexScan fetches the rows matching one key through a hash index —
// the prestructured point-access path as a Volcano operator. Each Next
// fetches one posting's record (a per-record page touch, like every
// record-at-a-time operator).
type IndexScan struct {
	Table *table.Table
	Index *index.HashIndex
	Key   core.Value

	rids []store.RID
	pos  int
	open bool
}

// BuildHashIndex scans the table once and indexes the given column.
func BuildHashIndex(t *table.Table, col int) (*index.HashIndex, error) {
	idx := index.NewHashIndex(t.Count())
	err := t.Scan(func(rid store.RID, r table.Row) (bool, error) {
		idx.Insert(r[col], rid)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// Open implements Iterator.
func (s *IndexScan) Open() error {
	s.rids = s.Index.Probe(s.rids[:0], s.Key)
	s.pos = 0
	s.open = true
	return nil
}

// Next implements Iterator.
func (s *IndexScan) Next() (table.Row, bool, error) {
	if !s.open {
		return nil, false, ErrNotOpen
	}
	for s.pos < len(s.rids) {
		rid := s.rids[s.pos]
		s.pos++
		row, err := s.Table.Get(rid)
		if err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
	return nil, false, nil
}

// Close implements Iterator.
func (s *IndexScan) Close() error {
	s.open = false
	s.rids = nil
	return nil
}

// Schema implements Iterator.
func (s *IndexScan) Schema() table.Schema { return s.Table.Schema() }
