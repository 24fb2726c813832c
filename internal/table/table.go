// Package table provides the stored-relation substrate shared by the two
// query engines: a Schema names tuple positions, a Row is a flat tuple of
// atom values, a Table is one read-only version of a heap file of rows in
// the buffer pool, and an Appender, its one writer, builds a version.
// Both the record-at-a-time engine (internal/relational)
// and the set-at-a-time executor (internal/exec) read the same tables
// through the same codec, so their performance difference is purely the
// processing discipline — exactly the comparison the paper's set-
// processing thesis calls for.
package table

import (
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

// Column decodes position col of an encoded row alone.
func Column(rec []byte, col int) (core.Value, error) {
	_, off := binary.Uvarint(rec)
	for ; off > 0 && col > 0; col-- {
		used, err := core.Skip(rec[off:])
		if err != nil {
			return nil, err
		}
		off += used
	}
	if off <= 0 {
		return nil, core.ErrCorrupt
	}
	v, _, err := core.Decode(rec[off:])
	return v, err
}

// Table is one version of a schema-tagged heap of rows. It only reads,
// so a published version never changes; rows enter through an Appender.
// A version is a prefix of its heap (store.HeapFile), so it reads its
// own rows off the pool's current pages, whatever commits after it.
type Table struct {
	schema Schema
	heap   *store.HeapFile
	pool   *store.BufferPool
	// set is this version's extended set; every constructor, WithIO
	// included, starts a fresh one.
	set *versionSet
}

// versionSet memoises one table version's extended set: built once,
// under mu, and read without it once published.
type versionSet struct {
	mu sync.Mutex
	s  atomic.Pointer[core.Set]
}

// Appender is the one writer of a table version. A loader gets one from
// Create or CreateIn, for a table no catalog has published; a catalog
// transaction gets one from Extend, appending through its shadow.
type Appender struct {
	t Table
}

// Create makes an empty table in the pool and returns its appender.
func Create(pool *store.BufferPool, schema Schema) (*Appender, error) {
	return CreateIn(pool, pool, schema)
}

// CreateIn is Create with the pages written through io (e.g. a wal
// transaction shadow); pool is kept for statistics and for publishing.
func CreateIn(io store.PageIO, pool *store.BufferPool, schema Schema) (*Appender, error) {
	h, err := store.CreateHeap(io)
	if err != nil {
		return nil, err
	}
	return &Appender{t: Table{schema: schema, heap: h, pool: pool, set: &versionSet{}}}, nil
}

// Extend returns an appender of a successor of t written through io, a
// transaction's shadow, so t stays as it is. Only catalog.Txn calls it.
func (t *Table) Extend(io store.PageIO) *Appender { return &Appender{t: *t.WithIO(io)} }

// Table returns the version the appender builds; rows appended later
// show through it.
func (a *Appender) Table() *Table { return &a.t }

// Insert appends a row: its record, through Append.
func (a *Appender) Insert(r Row) (store.RID, error) {
	// The page copies the record, so it is encoded on the stack unless
	// it outgrows the buffer.
	var buf [256]byte
	return a.Append(EncodeRow(buf[:0], r))
}

// Append appends one canonical record, as EncodeRow or AppendRecord
// writes it; a record of another arity than the schema's is ErrSchema.
func (a *Appender) Append(rec []byte) (store.RID, error) {
	if n, _ := binary.Uvarint(rec); n != uint64(a.t.schema.Arity()) {
		return store.RID{}, fmt.Errorf("%w: got %d, want %d", ErrSchema, n, a.t.schema.Arity())
	}
	return a.t.heap.Append(rec)
}

// InsertAll appends many rows.
func (a *Appender) InsertAll(rows []Row) error {
	for _, r := range rows {
		if _, err := a.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Open reattaches to a table whose heap chain starts at first (see
// FirstPage); the row count is recomputed from the chain.
func Open(pool *store.BufferPool, schema Schema, first store.PageID) (*Table, error) {
	h, err := store.OpenHeap(pool, first)
	if err != nil {
		return nil, err
	}
	return &Table{schema: schema, heap: h, pool: pool, set: &versionSet{}}, nil
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

// At is kept for benchsurface_test.go: a table version is its own
// snapshot, so it returns t.
func (t *Table) At(*store.View) *Table { return t }

// WithIO returns a clone of the table whose pages read through io: the
// buffer pool again when a transaction's version publishes at commit.
func (t *Table) WithIO(io store.PageIO) *Table {
	c := *t
	c.heap = t.heap.WithIO(io)
	c.set = &versionSet{}
	return &c
}

// Get fetches one row by rid.
func (t *Table) Get(rid store.RID) (Row, error) {
	rec, err := t.heap.Get(rid)
	if err != nil {
		return nil, err
	}
	return DecodeRow(rec)
}

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
// path) in page-list order: fn receives all rows of one page together,
// boxed out of one PageBatch, so fn may retain them.
func (t *Table) ScanBatches(fn func(page store.PageID, rows []Row) (bool, error)) error {
	var pb PageBatch
	for _, id := range t.heap.Pages() {
		b, err := t.ReadPage(id, &pb, nil)
		if err != nil {
			return err
		}
		rows, _ := b.AppendRows(nil, nil)
		if cont, err := fn(id, rows); err != nil || !cont {
			return err
		}
	}
	return nil
}

// PageIDs returns the ids of the table's heap pages in chain order, for
// partitioned (parallel) scans. It reads the heap's own list and
// fetches no page.
func (t *Table) PageIDs() ([]store.PageID, error) { return t.heap.Pages(), nil }

// ReadPage decodes every live row of one heap page that this version
// holds into b (up to its tail on the last page). The batch is b's
// scratch; need is Decode's.
func (t *Table) ReadPage(id store.PageID, b *PageBatch, need []bool) (*Batch, error) {
	fr, err := t.heap.IO().Page(id)
	if err != nil {
		return nil, err
	}
	defer fr.Unpin()
	p := store.SlottedPage(fr.Data())
	return b.Decode(p, t.heap.Slots(id, p), need)
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
		rec, err := t.heap.Record(rid, store.SlottedPage(fr.Data()))
		if err == nil {
			err = b.appendRecord(rec, need, len(rids))
		}
		fr.Unpin()
		if err != nil {
			return err
		}
	}
	return nil
}

// MorselSource deals a table's heap pages out as morsels: a shared,
// goroutine-safe dispenser that scan workers pull from, so page-level
// work self-balances across workers (a fast worker simply claims more
// morsels). A source serves one run at a time. The first worker to Bind
// starts a run, rewound to the first page of the table's page list; the
// other workers join that run, and a run ends when every worker that
// bound has released. So one tree can run again.
type MorselSource struct {
	table *Table
	mu    sync.Mutex
	bound int32        // workers in the current run
	next  atomic.Int32 // the run's next unclaimed page
}

// NewMorselSource returns a dispenser over the table's heap chain. It
// fetches no page.
func (t *Table) NewMorselSource() *MorselSource {
	m := new(MorselSource)
	m.Init(t)
	return m
}

// Init makes m a dispenser over t's heap chain, for a source held by
// value; it must not be in use.
func (m *MorselSource) Init(t *Table) { m.table = t }

// Table returns the table the morsels belong to.
func (m *MorselSource) Table() *Table { return m.table }

// Bind joins one worker to the current run, starting a run when none is
// bound. The lock publishes the rewind to every worker.
func (m *MorselSource) Bind() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bound == 0 {
		m.next.Store(0)
	}
	m.bound++
}

// Release takes one bound worker out of the current run.
func (m *MorselSource) Release() {
	m.mu.Lock()
	m.bound--
	m.mu.Unlock()
}

// Pages returns the total number of morsels.
func (m *MorselSource) Pages() int { return len(m.table.heap.Pages()) }

// Next claims the next unclaimed page of the run and decodes it into b
// (see ReadPage); it returns nil once the chain is exhausted. Safe for
// concurrent use by the bound workers.
func (m *MorselSource) Next(b *PageBatch, need []bool) (*Batch, error) {
	pages := m.table.heap.Pages()
	i := int(m.next.Add(1) - 1)
	if i >= len(pages) {
		return nil, nil
	}
	return m.table.ReadPage(pages[i], b, need)
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

// SetAt returns this table version's extended set, its ToXST. The first
// caller builds it, concurrent callers wait for that build, and later
// ones share it without locking or allocating; a failed build is not
// kept.
func (t *Table) SetAt() (*core.Set, error) {
	m := t.set
	if s := m.s.Load(); s != nil {
		return s, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.s.Load(); s != nil {
		return s, nil
	}
	s, err := t.ToXST()
	if err != nil {
		return nil, err
	}
	m.s.Store(s)
	return s, nil
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
