package catalog

import (
	"context"
	"fmt"
	"strings"

	"xst/internal/core"
	"xst/internal/index"
	"xst/internal/plan"
	"xst/internal/stats"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/trace"
	"xst/internal/wal"
)

// Transactions: every mutation path — inserts and loads, table
// creation, partition declarations, statistics and index persistence —
// runs inside a wal transaction and commits atomically. Txn.Insert is
// the one way a transaction adds rows to a published table, so the
// rows it files are the rows the commit adds to the table's indexes.
//
// The shape is single-writer, many-snapshot-readers:
//
//   - Begin takes the database's writer lock for the transaction's
//     whole lifetime; writers serialize, readers never wait.
//   - All page mutations go through a txnIO adapter: reads fall through
//     to the committed image in the buffer pool, writes collect in the
//     wal transaction's shadow. Nothing committed is touched while the
//     statement runs, so an abort is free and readers keep scanning.
//   - Commit builds the next version once — the version the
//     transaction began at, overlaid with what it staged — and writes
//     the __meta rewrite and page 0 off it into the shadow. It then
//     appends the after-images and a commit marker to the log, fsyncs,
//     and, under db.mu, installs the images through store.CommitPages
//     and publishes the version, so a snapshot reader observes either
//     the whole commit or none of it. A reader of an older version reads
//     the new images too, up to each of its tables' heap tails.
//
// Index maintenance rides the same commit. An index is built once, at
// CreateIndex or at open; record ids never move, so after that each
// declared index on a table that received inserts is republished as a
// successor at a cost proportional to the rows committed — a hash index
// appends to the entry table its versions share (HashIndex.WithInserts),
// a btree path-copies (BTree.Inserted) — and an untouched table's index
// is shared as it is. The successor planner catalog names the new table
// structs and the new index versions together, so every session's next
// point lookup takes the index path, whoever committed.

// txnIO adapts a wal.Txn to store.PageIO: reads resolve shadow-first
// then fall through to a private copy of the committed image in the
// pool, which joins the shadow on the frame's first MarkDirty.
type txnIO struct {
	tx   *wal.Txn
	pool *store.BufferPool
}

// Page implements store.PageIO.
func (io *txnIO) Page(id store.PageID) (store.Frame, error) {
	if img, ok := io.tx.ShadowPage(id); ok {
		return store.ShadowFrame(id, img, nil), nil
	}
	fr, err := io.pool.Page(id)
	if err != nil {
		return store.Frame{}, err
	}
	buf := make([]byte, store.PageSize)
	copy(buf, fr.Data())
	fr.Unpin()
	return store.ShadowFrame(id, buf, io.tx), nil
}

// AllocatePage implements store.PageIO. The id comes from the base
// pager (ids are never reused, so an abort just strands a zero page);
// the zeroed image sits in the shadow already.
func (io *txnIO) AllocatePage() (store.Frame, error) {
	id, err := io.tx.Allocate()
	if err != nil {
		return store.Frame{}, err
	}
	img, _ := io.tx.ShadowPage(id)
	return store.ShadowFrame(id, img, nil), nil
}

// insertRec is one staged row for incremental index maintenance.
type insertRec struct {
	rid store.RID
	row table.Row
}

// tableState is one table touched by a transaction: the appender that
// builds its successor through the transaction's shadow and the rows
// inserted through it, which the commit files in the table's indexes.
type tableState struct {
	a   *table.Appender
	ins []insertRec
}

// Txn is one atomic statement against the database: reads see the
// committed state plus the transaction's own writes; Commit publishes
// everything (pages, catalog, indexes, planner snapshot) in one commit,
// and Abort discards it all. Exactly one of Commit/Abort must be
// called; Begin holds the writer lock until then.
type Txn struct {
	db        *Database
	base      *version // the version the transaction began at
	wtx       *wal.Txn
	io        *txnIO
	tables    map[string]*tableState
	parts     map[string]Partition
	newStats  stats.Catalog // full replacement when non-nil
	created   *Index        // the index CreateIndex declares
	catDirty  bool
	metaDirty bool
	done      bool
}

// Begin starts a transaction. Writers serialize: Begin blocks until
// the previous transaction commits or aborts. Snapshot readers are
// never blocked.
func (db *Database) Begin() *Txn {
	db.writeMu.Lock()
	wtx := db.mgr.Begin()
	return &Txn{
		db: db,
		// Only a commit, under writeMu, replaces db.cur, so the holder
		// of writeMu reads it without db.mu.
		base:   db.cur,
		wtx:    wtx,
		io:     &txnIO{tx: wtx, pool: db.pool},
		tables: map[string]*tableState{},
	}
}

// state returns the transaction's appender of a table, extending the
// committed table on first touch.
func (tx *Txn) state(name string) (*tableState, error) {
	if st, ok := tx.tables[name]; ok {
		return st, nil
	}
	t, err := tx.base.table(name)
	if err != nil {
		return nil, err
	}
	st := &tableState{a: t.Extend(tx.io)}
	tx.tables[name] = st
	return st, nil
}

// Insert appends rows to a table within the transaction, recording
// them for incremental index maintenance at commit.
func (tx *Txn) Insert(name string, rows ...table.Row) error {
	if tx.done {
		return wal.ErrTxnDone
	}
	st, err := tx.state(name)
	if err != nil {
		return err
	}
	for _, r := range rows {
		rid, err := st.a.Insert(r)
		if err != nil {
			return err
		}
		st.ins = append(st.ins, insertRec{rid: rid, row: r})
	}
	return nil
}

// CreateTable defines a new, empty table within the transaction; Insert
// fills it, and the commit publishes it.
func (tx *Txn) CreateTable(schema table.Schema) error {
	if tx.done {
		return wal.ErrTxnDone
	}
	if strings.HasPrefix(schema.Name, "__") {
		return fmt.Errorf("catalog: table name %q is reserved", schema.Name)
	}
	_, staged := tx.tables[schema.Name]
	if _, exists := tx.base.plan.Tables[schema.Name]; staged || exists {
		return fmt.Errorf("%w: %q", ErrTableExists, schema.Name)
	}
	a, err := table.CreateIn(tx.io, tx.db.pool, schema)
	if err != nil {
		return err
	}
	tx.tables[schema.Name] = &tableState{a: a}
	tx.catDirty = true
	return nil
}

// SetPartition stages a partition declaration for a table. It reads
// the table only to validate the column — deliberately not through
// tx.state, so commit does not republish a table version for a
// metadata-only change.
func (tx *Txn) SetPartition(name string, p Partition) error {
	if tx.done {
		return wal.ErrTxnDone
	}
	t, err := tx.base.table(name)
	if st, ok := tx.tables[name]; ok {
		t, err = st.a.Table(), nil
	}
	if err != nil {
		return err
	}
	if err := p.valid(); err != nil {
		return err
	}
	if t.Schema().Col(p.Col) < 0 {
		return fmt.Errorf("catalog: partition column %q not in %s(%s)",
			p.Col, name, t.Schema().Cols)
	}
	if tx.parts == nil {
		tx.parts = map[string]Partition{}
	}
	tx.parts[name] = p
	tx.catDirty = true
	return nil
}

// Abort discards the transaction and releases the writer lock. Safe to
// call after Commit (a no-op), so `defer tx.Abort()` is a valid unwind
// guard.
func (tx *Txn) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.wtx.Abort()
	tx.db.writeMu.Unlock()
}

// Commit makes the transaction durable and visible: it builds the next
// version (next), whose __meta rewrite and catalog page join the shadow,
// the wal logs and fsyncs every after-image, the buffer pool installs
// them, and the version publishes atomically with them. On error the transaction is dead (the writer lock is
// released); the database keeps serving its last committed version.
func (tx *Txn) Commit(ctx context.Context) error {
	if tx.done {
		return wal.ErrTxnDone
	}
	tx.done = true
	db := tx.db
	defer db.writeMu.Unlock()
	v, err := tx.next()
	if err != nil {
		tx.wtx.Abort()
		return err
	}
	sp := trace.SpanOf(ctx).Start("wal")
	sp.AddBatches(tx.wtx.Pages())
	err = tx.wtx.CommitWith(func(pages map[store.PageID][]byte) error {
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.pool.CommitPages(pages); err != nil {
			return err
		}
		db.cur = v
		return nil
	})
	sp.End()
	if err != nil {
		return err
	}

	// Auto-checkpoint: fold the log into the base once it outgrows the
	// threshold. Still under writeMu, so no transaction is in flight.
	if db.autoCk > 0 && db.mgr.LoggedBytes() >= db.autoCk {
		if err := db.mgr.Checkpoint(); err != nil {
			return fmt.Errorf("catalog: auto checkpoint: %w", err)
		}
	}
	return nil
}

// next builds the version the commit publishes: the base with the
// successor planner catalog (nextCatalog), the staged partitions, and,
// when statistics or index declarations changed, a rewritten __meta,
// which is written, with page 0, into the shadow. It runs before the
// commit takes db.mu: a hash index's new entries lie beyond every
// published version's bound, so readers go on while it grows, and if
// the commit then fails they stay invisible.
func (tx *Txn) next() (*version, error) {
	db, base := tx.db, tx.base
	v := *base
	v.epoch++
	if len(tx.tables) > 0 || tx.newStats != nil || tx.created != nil {
		p, err := tx.nextCatalog()
		if err != nil {
			return nil, err
		}
		v.plan = p
	}
	if tx.metaDirty {
		mt, err := table.CreateIn(tx.io, db.pool, metaSchema)
		if err != nil {
			return nil, err
		}
		if err := fillMeta(mt, v.plan); err != nil {
			return nil, err
		}
		v.meta = mt.Table().WithIO(db.pool)
		tx.catDirty = true
	}
	if len(tx.parts) > 0 {
		v.parts = overlay(base.parts, tx.parts)
	}
	if tx.catDirty {
		if err := writeCatalogPage(tx.io, &v); err != nil {
			return nil, err
		}
	}
	return &v, nil
}

// nextCatalog builds the successor planner catalog: the base's tables,
// each one the transaction touched swapped for its committed clone,
// the staged statistics, and the base's indexes in order, each carried
// to its table's successor, then the one CreateIndex declared.
func (tx *Txn) nextCatalog() (*plan.Catalog, error) {
	base := tx.base.plan
	p := &plan.Catalog{Tables: base.Tables, Stats: base.Stats}
	if tx.newStats != nil {
		p.Stats = tx.newStats
	}
	if len(tx.tables) > 0 {
		p.Tables = make(map[string]*table.Table, len(base.Tables)+len(tx.tables))
		for name, t := range base.Tables {
			p.Tables[name] = t
		}
		for name, st := range tx.tables {
			p.Tables[name] = st.a.Table().WithIO(tx.db.pool)
		}
	}
	p.Indexes = make([]*Index, 0, len(base.Indexes)+1)
	for _, ix := range base.Indexes {
		nix, err := tx.successor(ix, p.Tables)
		if err != nil {
			return nil, err
		}
		p.Indexes = append(p.Indexes, nix)
	}
	if tx.created != nil {
		p.Indexes = append(p.Indexes, tx.created)
	}
	return p, nil
}

// successor carries ix to its table's version in tables: an untouched
// table's index is ix itself, and a table that took inserts gets ix
// extended by them. A set among the keys of a btree fails the commit
// with the error a build gives, since no btree holds a set.
func (tx *Txn) successor(ix *Index, tables map[string]*table.Table) (*Index, error) {
	name := ix.Table.Schema().Name
	st, touched := tx.tables[name]
	if !touched {
		return ix, nil
	}
	out := &Index{Table: tables[name], Col: ix.Col, Kind: ix.Kind, Hash: ix.Hash, BTree: ix.BTree}
	if len(st.ins) == 0 {
		return out, nil
	}
	col := ix.Table.Schema().Col(ix.Col)
	if ix.Kind == plan.HashIdx {
		entries := make([]index.HashEntry, 0, len(st.ins))
		for _, in := range st.ins {
			entries = append(entries, index.HashEntry{Key: in.row[col], RID: in.rid})
		}
		out.Hash = ix.Hash.WithInserts(entries)
		return out, nil
	}
	entries := make([]index.Entry, 0, len(st.ins))
	for _, in := range st.ins {
		if in.row[col].Kind() == core.KindSet {
			return nil, index.NonAtomKey(ix.Col, in.row[col])
		}
		entries = append(entries, index.Entry{Key: core.OrderKey(in.row[col]), RID: in.rid})
	}
	out.BTree = ix.BTree.Inserted(entries)
	return out, nil
}

// overlay returns a copy of m with over's entries laid on top.
func overlay[V any](m, over map[string]V) map[string]V {
	out := make(map[string]V, len(m)+len(over))
	for k, v := range m {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
}

// fillMeta writes a catalog's statistics and index declarations as rows
// of a fresh __meta table (Txn.next).
func fillMeta(t *table.Appender, c *plan.Catalog) error {
	var rows []table.Row
	for _, name := range sortedNames(c.Stats) {
		rows = append(rows, table.Row{core.Str("stats"), core.Str(name), c.Stats[name].Value()})
	}
	for _, ix := range byTable(c.Indexes) {
		rows = append(rows, table.Row{core.Str("index"), core.Str(ix.Table.Schema().Name),
			core.Tuple(core.Str(ix.Col), core.Str(ix.Kind.String()))})
	}
	return t.InsertAll(rows)
}

// analyze is Analyze's transactional engine: collect fresh statistics
// from the base version's tables and stage them with a __meta rewrite.
func (tx *Txn) analyze(ctx context.Context) (int, error) {
	fresh := stats.Catalog{}
	for name, t := range tx.base.plan.Tables {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		ts, err := stats.Collect(t)
		if err != nil {
			return 0, fmt.Errorf("catalog: analyze %q: %w", name, err)
		}
		fresh[name] = ts
	}
	tx.newStats = fresh
	tx.metaDirty = true
	return len(fresh), nil
}

// buildIndex builds a kind index on column col of t: at CreateIndex and
// at open, the only times an index is built.
func buildIndex(ctx context.Context, t *table.Table, col string, kind plan.IndexKind) (*Index, error) {
	c := t.Schema().Col(col)
	if c < 0 {
		return nil, fmt.Errorf("catalog: index column %q not in %s(%s)", col, t.Schema().Name, t.Schema().Cols)
	}
	ix := &Index{Table: t, Col: col, Kind: kind}
	var err error
	if kind == plan.HashIdx {
		ix.Hash, err = index.BuildHash(ctx, t, c)
	} else {
		ix.BTree, err = index.BuildBTree(ctx, t, c)
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: building %s index %s.%s: %w", kind, t.Schema().Name, col, err)
	}
	return ix, nil
}
