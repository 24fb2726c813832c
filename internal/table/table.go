// Package table provides the stored-relation substrate shared by the two
// query engines: a Schema names tuple positions, a Row is a flat tuple of
// atom values, and a Table persists rows into a heap file through the
// buffer pool. Both the record-at-a-time engine (internal/relational)
// and the set-at-a-time executor (internal/exec) read the same tables
// through the same codec, so their performance difference is purely the
// processing discipline — exactly the comparison the paper's set-
// processing thesis calls for.
package table

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xst/internal/core"
	"xst/internal/store"
)

// Schema names the positions of a stored tuple. Position i holds the
// attribute Cols[i] — the XST reading is that each row is the extended
// set {v1^1, …, vn^n} with the schema mapping positions to names by
// re-scope.
type Schema struct {
	Name string
	Cols []string
}

// Col returns the index of a column name, or -1.
func (s Schema) Col(name string) int {
	for i, c := range s.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Arity returns the column count.
func (s Schema) Arity() int { return len(s.Cols) }

// JoinSchema composes the output schema of an equi-join: left columns
// then right columns. A right column whose name collides with an
// earlier column is auto-qualified as "rightName.col" (with a numbered
// fallback) so the joined schema never carries duplicates — Col on a
// schema with duplicate names silently resolves to the first match,
// which misreads every reference to the shadowed column.
func JoinSchema(l, r Schema) Schema {
	cols := make([]string, 0, len(l.Cols)+len(r.Cols))
	cols = append(cols, l.Cols...)
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		seen[c] = true
	}
	for _, c := range r.Cols {
		name := c
		if seen[name] {
			name = r.Name + "." + c
		}
		for i := 2; seen[name]; i++ {
			name = fmt.Sprintf("%s.%s#%d", r.Name, c, i)
		}
		seen[name] = true
		cols = append(cols, name)
	}
	return Schema{Name: l.Name + "*" + r.Name, Cols: cols}
}

// Row is one stored tuple.
type Row []core.Value

// Clone copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Tuple renders the row as the XST n-tuple {v1^1, …, vn^n}.
func (r Row) Tuple() *core.Set { return core.Tuple(r...) }

// ErrSchema reports a row/schema arity mismatch.
var ErrSchema = errors.New("table: row arity does not match schema")

// EncodeRow appends the row codec: uvarint arity then each value in the
// canonical core encoding.
func EncodeRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = core.AppendEncode(dst, v)
	}
	return dst
}

// DecodeRow parses one encoded row.
func DecodeRow(buf []byte) (Row, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || n > uint64(len(buf)) {
		return nil, core.ErrCorrupt
	}
	off := k
	out := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used, err := core.Decode(buf[off:])
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		off += used
	}
	if off != len(buf) {
		return nil, core.ErrCorrupt
	}
	return out, nil
}

// Table is a schema-tagged heap of rows.
type Table struct {
	schema Schema
	heap   *store.HeapFile
	pool   *store.BufferPool
}

// Create makes an empty table in the pool.
func Create(pool *store.BufferPool, schema Schema) (*Table, error) {
	h, err := store.CreateHeap(pool)
	if err != nil {
		return nil, err
	}
	return &Table{schema: schema, heap: h, pool: pool}, nil
}

// Open reattaches to a table whose heap chain starts at first (see
// FirstPage); the row count is recomputed from the chain.
func Open(pool *store.BufferPool, schema Schema, first store.PageID) (*Table, error) {
	h, err := store.OpenHeap(pool, first)
	if err != nil {
		return nil, err
	}
	return &Table{schema: schema, heap: h, pool: pool}, nil
}

// FirstPage returns the head page of the table's heap chain; persist it
// (e.g. in a catalog) to Open the table later.
func (t *Table) FirstPage() store.PageID { return t.heap.FirstPage() }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Count returns the live row count.
func (t *Table) Count() int { return t.heap.Count() }

// Pool exposes the buffer pool for statistics collection.
func (t *Table) Pool() *store.BufferPool { return t.pool }

// At returns a read-only clone of the table pinned to a snapshot view:
// every page it touches resolves to the image as of the view's commit
// epoch, so a scan over the clone returns exactly the rows committed
// when the view was taken, no matter what writers commit meanwhile.
func (t *Table) At(v *store.View) *Table {
	if v.Pool() != t.pool {
		// The view snapshots a different buffer pool (e.g. a session
		// scratch table queried under a shared-database view) — its
		// epoch says nothing about this table's pages.
		return t
	}
	c := *t
	c.heap = t.heap.WithIO(v)
	return &c
}

// WithIO returns a clone of the table whose pages read and write
// through io — a wal transaction shadow while a statement runs, or the
// buffer pool again when the committed clone is published.
func (t *Table) WithIO(io store.PageIO) *Table {
	c := *t
	c.heap = t.heap.WithIO(io)
	return &c
}

// CreateIn makes an empty table whose pages are written through io
// (e.g. a wal transaction shadow). pool is retained for statistics and
// for rebinding the published table after commit.
func CreateIn(io store.PageIO, pool *store.BufferPool, schema Schema) (*Table, error) {
	h, err := store.CreateHeap(io)
	if err != nil {
		return nil, err
	}
	return &Table{schema: schema, heap: h, pool: pool}, nil
}

// Insert appends a row.
func (t *Table) Insert(r Row) (store.RID, error) {
	if len(r) != t.schema.Arity() {
		return store.RID{}, fmt.Errorf("%w: got %d, want %d", ErrSchema, len(r), t.schema.Arity())
	}
	return t.heap.Append(EncodeRow(nil, r))
}

// InsertAll appends many rows.
func (t *Table) InsertAll(rows []Row) error {
	for _, r := range rows {
		if _, err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Get fetches one row by rid.
func (t *Table) Get(rid store.RID) (Row, error) {
	rec, err := t.heap.Get(rid)
	if err != nil {
		return nil, err
	}
	return DecodeRow(rec)
}

// Delete removes one row by rid.
func (t *Table) Delete(rid store.RID) error { return t.heap.Delete(rid) }

// Scan visits rows one at a time (the record-processing access path).
func (t *Table) Scan(fn func(rid store.RID, r Row) (bool, error)) error {
	var outer error
	err := t.heap.Scan(func(rid store.RID, rec []byte) bool {
		r, err := DecodeRow(rec)
		if err != nil {
			outer = err
			return false
		}
		cont, err := fn(rid, r)
		if err != nil {
			outer = err
			return false
		}
		return cont
	})
	if outer != nil {
		return outer
	}
	return err
}

// ScanBatches visits rows page-at-a-time (the set-processing access
// path): fn receives all rows of one page together, decoded into a
// fresh PageBatch, so fn may retain them.
func (t *Table) ScanBatches(fn func(page store.PageID, rows []Row) (bool, error)) error {
	cur := t.NewBatchCursor(nil)
	for {
		id, b, ok, err := cur.Next()
		if err != nil || !ok {
			return err
		}
		rows, _ := b.AppendRows(nil, nil)
		if cont, err := fn(id, rows); err != nil || !cont {
			return err
		}
	}
}

// PageIDs returns the ids of the table's heap pages in chain order, for
// partitioned (parallel) scans. It reads the heap's own list and
// fetches no page.
func (t *Table) PageIDs() ([]store.PageID, error) { return t.heap.Pages(), nil }

// ReadPage decodes every live row of one heap page into b, resolved
// through the table's page source (so snapshot clones read their
// epoch's image). The batch is b's scratch; need is Decode's.
func (t *Table) ReadPage(id store.PageID, b *PageBatch, need []bool) (*Batch, error) {
	fr, err := t.heap.IO().Page(id)
	if err != nil {
		return nil, err
	}
	defer fr.Unpin()
	return b.Decode(store.SlottedPage(fr.Data()), need)
}

// ReadPageRows is ReadPage boxed into fresh rows, which may be retained.
func (t *Table) ReadPageRows(id store.PageID) ([]Row, error) {
	b, err := t.ReadPage(id, new(PageBatch), nil)
	if err != nil {
		return nil, err
	}
	rows, _ := b.AppendRows(nil, nil)
	return rows, nil
}

// Fetch makes b the rows at rids, in order, decoded by the page kernel
// straight off their pinned pages (see PageBatch.Decode; need is its):
// the record-at-a-time access path of an index probe, delivered as a
// batch.
func (t *Table) Fetch(rids []store.RID, b *Batch, need []bool) error {
	b.Reset()
	for _, rid := range rids {
		fr, err := t.heap.IO().Page(rid.Page)
		if err != nil {
			return err
		}
		rec, ok := store.SlottedPage(fr.Data()).Get(int(rid.Slot))
		if ok {
			err = b.appendRecord(rec, need, len(rids))
		} else {
			err = fmt.Errorf("%w: %v", store.ErrNoRecord, rid)
		}
		fr.Unpin()
		if err != nil {
			return err
		}
	}
	return nil
}

// MorselSource deals a table's heap pages out as morsels: a shared,
// goroutine-safe dispenser that parallel scan workers pull from, so
// page-level work self-balances across workers (a fast worker simply
// claims more morsels). The page list is the heap's own; Bind pins the
// table to the query's snapshot view, so all workers read one
// epoch-consistent image of every page.
type MorselSource struct {
	table *Table
	pages []store.PageID
	next  atomic.Int64
	bind  sync.Once
}

// NewMorselSource returns a dispenser over the table's heap chain. It
// fetches no page: the plan is lowered before the query holds a view.
func (t *Table) NewMorselSource() *MorselSource {
	return &MorselSource{table: t, pages: t.heap.Pages()}
}

// Table returns the table the morsels belong to.
func (m *MorselSource) Table() *Table { return m.table }

// Bind resolves the source against the context's snapshot view, once:
// the first worker to open pins the table clone every worker then reads
// through. The sync.Once is the barrier that publishes the rebound
// field to the other workers. The table and the view come from one
// snapshot (catalog.BeginRead), so the page list needs no second look.
func (m *MorselSource) Bind(ctx context.Context) {
	m.bind.Do(func() {
		if v := store.ViewFrom(ctx); v != nil {
			m.table = m.table.At(v)
		}
	})
}

// Pages returns the total number of morsels.
func (m *MorselSource) Pages() int { return len(m.pages) }

// Next claims the next unclaimed page; ok is false once the chain is
// exhausted. Safe for concurrent use.
func (m *MorselSource) Next() (store.PageID, bool) {
	i := m.next.Add(1) - 1
	if i >= int64(len(m.pages)) {
		return 0, false
	}
	return m.pages[i], true
}

// Cursor pulls one decoded row per Next — the record-at-a-time access
// path, pinning the page on every call (see store.HeapCursor).
type Cursor struct {
	hc *store.HeapCursor
}

// NewCursor returns a cursor positioned before the first row.
func (t *Table) NewCursor() *Cursor { return &Cursor{hc: t.heap.NewCursor()} }

// Next returns the next row; ok is false at end of table.
func (c *Cursor) Next() (store.RID, Row, bool, error) {
	rid, rec, ok, err := c.hc.Next()
	if err != nil || !ok {
		return store.RID{}, nil, false, err
	}
	row, err := DecodeRow(rec)
	if err != nil {
		return store.RID{}, nil, false, err
	}
	return rid, row, true, nil
}

// Reset repositions the cursor at the beginning.
func (c *Cursor) Reset() { c.hc.Reset() }

// BatchCursor pulls one decoded page per Next — the set-processing
// access path in pull form, backing the streaming operator tree
// (internal/exec): the consumer paces the scan, one page pin per batch.
// The cursor owns one PageBatch, so the batch of a Next is scratch
// until the following Next (see PageBatch).
type BatchCursor struct {
	pc    *store.PageCursor
	batch PageBatch
	need  []bool
}

// NewBatchCursor returns a batch cursor positioned before the first
// page, decoding the positions need marks (nil: all; see Decode).
func (t *Table) NewBatchCursor(need []bool) *BatchCursor {
	return &BatchCursor{pc: t.heap.NewPageCursor(), need: need}
}

// Next returns the rows of the next heap page; ok is false at end of
// table. An empty page yields an empty batch.
func (c *BatchCursor) Next() (store.PageID, *Batch, bool, error) {
	var out *Batch
	var id store.PageID
	ok, err := c.pc.Next(func(page store.PageID, p store.SlottedPage) (err error) {
		id = page
		out, err = c.batch.Decode(p, c.need)
		return err
	})
	if err != nil || !ok {
		return 0, nil, false, err
	}
	return id, out, true, nil
}

// Reset repositions the cursor at the beginning.
func (c *BatchCursor) Reset() { c.pc.Reset() }

// Vacuum rewrites the table into a fresh heap without tombstoned slots
// or partially-filled interior pages, returning the compacted table.
// Record ids change; indexes must be rebuilt.
func (t *Table) Vacuum() (*Table, error) {
	out, err := Create(t.pool, t.schema)
	if err != nil {
		return nil, err
	}
	err = t.Scan(func(_ store.RID, r Row) (bool, error) {
		_, err := out.Insert(r)
		return true, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ToXST materializes the whole table as the extended set of its row
// tuples — the bridge from stored data to the symbolic algebra.
func (t *Table) ToXST() (*core.Set, error) {
	b := core.NewBuilder(t.Count())
	err := t.Scan(func(_ store.RID, r Row) (bool, error) {
		b.AddClassical(r.Tuple())
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return b.Set(), nil
}
