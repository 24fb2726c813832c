package catalog

import (
	"context"
	"fmt"

	"xst/internal/core"
	"xst/internal/index"
	"xst/internal/stats"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/trace"
	"xst/internal/wal"
)

// Transactions: every mutation path — inserts and loads, table
// creation, vacuum, partition declarations, statistics and index
// persistence — runs inside a wal transaction and commits atomically.
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
//     and, under db.mu, installs the images through store.CommitPages —
//     which advances the MVCC epoch and parks superseded images for
//     active snapshot views — and publishes the version, so a snapshot
//     reader observes either the whole commit or none of it.
//
// Incremental index maintenance rides the same commit: each declared
// index on a table that received inserts is republished as a successor
// at a cost proportional to the rows committed — a hash index appends
// to the entry table its versions share (HashIndex.WithInserts), a
// btree path-copies (BTree.Inserted). The planner snapshot names the new
// table structs and the new index versions together, so every session's
// next point lookup takes the index path, whoever committed.

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

// tableState is one table touched by a transaction: the writable clone
// bound to the transaction's shadow, the rows it inserted (for index
// maintenance at commit), and whether the heap was replaced outright
// (create/vacuum/meta rewrite), whose indexes are rebuilt instead.
type tableState struct {
	t        *table.Table
	ins      []insertRec
	replaced bool
	extended []*Index // the indexes' successors over ins, set at commit
}

// Txn is one atomic statement against the database: reads see the
// committed state plus the transaction's own writes; Commit publishes
// everything (pages, catalog, indexes, planner snapshot) in one epoch,
// and Abort discards it all. Exactly one of Commit/Abort must be
// called; Begin holds the writer lock until then.
type Txn struct {
	db        *Database
	base      *version // the version the transaction began at
	wtx       *wal.Txn
	io        *txnIO
	tables    map[string]*tableState
	parts     map[string]Partition
	newStats  stats.Catalog       // full replacement when non-nil
	newIdxs   map[string][]*Index // per-table replacement
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

// state returns the transaction's writable clone of a table, creating
// it from the committed table on first touch.
func (tx *Txn) state(name string) (*tableState, error) {
	if st, ok := tx.tables[name]; ok {
		return st, nil
	}
	t, err := tx.base.table(name)
	if err != nil {
		return nil, err
	}
	st := &tableState{t: t.WithIO(tx.io)}
	tx.tables[name] = st
	return st, nil
}

// Table returns the transaction's writable view of a table: its pages
// resolve shadow-first, so the transaction reads its own writes while
// the committed table stays untouched.
func (tx *Txn) Table(name string) (*table.Table, error) {
	if tx.done {
		return nil, wal.ErrTxnDone
	}
	st, err := tx.state(name)
	if err != nil {
		return nil, err
	}
	return st.t, nil
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
		rid, err := st.t.Insert(r)
		if err != nil {
			return err
		}
		st.ins = append(st.ins, insertRec{rid: rid, row: r})
	}
	return nil
}

// CreateTable defines a new table within the transaction. The returned
// table is shadow-bound; read the committed clone from the database
// after Commit.
func (tx *Txn) CreateTable(schema table.Schema) (*table.Table, error) {
	if tx.done {
		return nil, wal.ErrTxnDone
	}
	_, staged := tx.tables[schema.Name]
	if _, exists := tx.base.tables[schema.Name]; staged || exists {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, schema.Name)
	}
	t, err := table.CreateIn(tx.io, tx.db.pool, schema)
	if err != nil {
		return nil, err
	}
	tx.tables[schema.Name] = &tableState{t: t, replaced: true}
	tx.catDirty = true
	return t, nil
}

// SetPartition stages a partition declaration for a table. It reads
// the table only to validate the column — deliberately not through
// tx.state, so commit does not republish a fresh table struct for a
// metadata-only change (callers holding the current struct keep it).
func (tx *Txn) SetPartition(name string, p Partition) error {
	if tx.done {
		return wal.ErrTxnDone
	}
	var t *table.Table
	if st, ok := tx.tables[name]; ok {
		t = st.t
	} else {
		var err error
		if t, err = tx.base.table(name); err != nil {
			return err
		}
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

// Vacuum rewrites a table into a fresh compact heap inside the
// transaction. Its indexes are rebuilt over the copy at commit.
func (tx *Txn) Vacuum(name string) error {
	if tx.done {
		return wal.ErrTxnDone
	}
	st, err := tx.state(name)
	if err != nil {
		return err
	}
	compact, err := table.CreateIn(tx.io, tx.db.pool, st.t.Schema())
	if err != nil {
		return err
	}
	err = st.t.Scan(func(_ store.RID, r table.Row) (bool, error) {
		_, err := compact.Insert(r)
		return true, err
	})
	if err != nil {
		return err
	}
	st.t = compact
	st.ins = nil
	st.replaced = true
	tx.catDirty = true
	// Record ids move when the heap is rewritten, so every index on the
	// table is rebuilt over the compacted copy (reading through the
	// shadow — the copy is not committed yet) and staged for publish.
	old, staged := tx.newIdxs[name]
	if !staged {
		old = tx.base.idxs[name]
	}
	if len(old) > 0 {
		rebuilt := make([]*Index, 0, len(old))
		for _, ix := range old {
			nw := &Index{Table: ix.Table, Col: ix.Col, Kind: ix.Kind}
			if err := buildIndexOn(context.Background(), compact, nw); err != nil {
				return err
			}
			rebuilt = append(rebuilt, nw)
		}
		if tx.newIdxs == nil {
			tx.newIdxs = map[string][]*Index{}
		}
		tx.newIdxs[name] = rebuilt
		tx.metaDirty = true
	}
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
// them under a new MVCC epoch, and the version publishes atomically with
// that epoch. On error the transaction is dead (the writer lock is
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
	err = tx.wtx.CommitWith(func(pages map[store.PageID][]byte, fresh map[store.PageID]bool) error {
		db.mu.Lock()
		defer db.mu.Unlock()
		if _, err := db.pool.CommitPages(pages, fresh); err != nil {
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

// next builds the version the commit publishes: the base overlaid with
// the staged tables, partitions, statistics and index lists, sharing
// every map the transaction left alone. A __meta rewrite (statistics and
// index declarations) and page 0 are written off it into the shadow.
func (tx *Txn) next() (*version, error) {
	db, base := tx.db, tx.base
	v := *base
	st := base.plan.Stats
	if tx.newStats != nil {
		st = tx.newStats
	}
	if tx.extendIndexes() || len(tx.newIdxs) > 0 {
		v.idxs = overlay(base.idxs, tx.newIdxs)
		for name, st := range tx.tables {
			if st.extended != nil {
				v.idxs[name] = st.extended
			}
		}
	}
	if tx.metaDirty {
		mt, err := table.CreateIn(tx.io, db.pool, metaSchema)
		if err != nil {
			return nil, err
		}
		if err := fillMeta(mt, st, v.idxs); err != nil {
			return nil, err
		}
		tx.tables[metaTable] = &tableState{t: mt, replaced: true}
		tx.catDirty = true
	}
	if len(tx.tables) > 0 {
		v.tables = make(map[string]*table.Table, len(base.tables)+len(tx.tables))
		for name, t := range base.tables {
			v.tables[name] = t
		}
		for name, st := range tx.tables {
			v.tables[name] = st.t.WithIO(db.pool)
		}
	}
	if len(tx.parts) > 0 {
		v.parts = overlay(base.parts, tx.parts)
	}
	if tx.catDirty {
		if err := writeCatalogPage(tx.io, &v); err != nil {
			return nil, err
		}
	}
	if len(tx.tables) > 0 || tx.newStats != nil || len(tx.newIdxs) > 0 {
		v.plan = planOf(&v, st, base.plan, tx.moved)
	}
	return &v, nil
}

// moved reports whether the transaction replaced a table's struct or
// its index list.
func (tx *Txn) moved(name string) bool {
	_, t := tx.tables[name]
	_, i := tx.newIdxs[name]
	return t || i
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

// extendIndexes derives the successor of each index on a table that
// took inserts (replaced heaps were rebuilt via newIdxs) and reports
// whether there was one. Commit calls it before taking db.mu: a hash
// index's new entries lie beyond every published version's bound, so
// readers go on while it grows; if the commit then fails they stay
// invisible.
func (tx *Txn) extendIndexes() bool {
	grew := false
	for name, st := range tx.tables {
		if st.replaced || len(st.ins) == 0 {
			continue
		}
		if _, staged := tx.newIdxs[name]; staged {
			continue
		}
		old := tx.base.idxs[name]
		if len(old) == 0 {
			continue
		}
		st.extended = make([]*Index, len(old))
		for i, ix := range old {
			st.extended[i] = extendIndex(ix, st.t, st.ins)
		}
		grew = true
	}
	return grew
}

// extendIndex derives the incremental successor of one index from the
// staged inserts. A row whose key cannot be derived (non-atom under a
// btree) falls back to sharing the old structure — the same rows would
// have failed a full rebuild, so staying stale is the conservative
// choice.
func extendIndex(ix *Index, t *table.Table, ins []insertRec) *Index {
	col := t.Schema().Col(ix.Col)
	if col < 0 {
		return ix
	}
	out := &Index{Table: ix.Table, Col: ix.Col, Kind: ix.Kind}
	switch ix.Kind {
	case IndexHash:
		if ix.Hash == nil {
			return ix
		}
		entries := make([]index.HashEntry, 0, len(ins))
		for _, in := range ins {
			entries = append(entries, index.HashEntry{Key: in.row[col], RID: in.rid})
		}
		out.Hash = ix.Hash.WithInserts(entries)
	case IndexBTree:
		if ix.BTree == nil {
			return ix
		}
		entries := make([]index.Entry, 0, len(ins))
		for _, in := range ins {
			if in.row[col].Kind() == core.KindSet {
				return ix
			}
			entries = append(entries, index.Entry{Key: core.OrderKey(in.row[col]), RID: in.rid})
		}
		out.BTree = ix.BTree.Inserted(entries)
	default:
		return ix
	}
	return out
}

// fillMeta writes a version's statistics and index declarations as rows
// of a fresh __meta table (Txn.next).
func fillMeta(t *table.Table, statsC stats.Catalog, idxs map[string][]*Index) error {
	for _, name := range sortedNames(statsC) {
		row := table.Row{core.Str("stats"), core.Str(name), statsC[name].Value()}
		if _, err := t.Insert(row); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(idxs) {
		for _, ix := range idxs[name] {
			row := table.Row{core.Str("index"), core.Str(name), core.Tuple(core.Str(ix.Col), core.Str(ix.Kind))}
			if _, err := t.Insert(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// analyze is Analyze's transactional engine: collect fresh statistics
// and rebuilt indexes from the base version's tables and stage them
// with a __meta rewrite.
func (tx *Txn) analyze(ctx context.Context) (int, error) {
	base := tx.base
	fresh := stats.Catalog{}
	for name, t := range base.plan.Tables {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		ts, err := stats.Collect(t)
		if err != nil {
			return 0, fmt.Errorf("catalog: analyze %q: %w", name, err)
		}
		fresh[name] = ts
	}
	tx.newIdxs = map[string][]*Index{}
	for name, list := range base.idxs {
		rebuilt := make([]*Index, 0, len(list))
		for _, ix := range list {
			nix := &Index{Table: ix.Table, Col: ix.Col, Kind: ix.Kind}
			if err := buildIndexOn(ctx, base.tables[name], nix); err != nil {
				return 0, err
			}
			rebuilt = append(rebuilt, nix)
		}
		tx.newIdxs[name] = rebuilt
	}
	tx.newStats = fresh
	tx.metaDirty = true
	return len(fresh), nil
}

// buildIndexOn (re)builds ix's structure from an explicit table.
func buildIndexOn(ctx context.Context, t *table.Table, ix *Index) error {
	col := t.Schema().Col(ix.Col)
	if col < 0 {
		return fmt.Errorf("catalog: index column %q not in %s(%s)", ix.Col, ix.Table, t.Schema().Cols)
	}
	switch ix.Kind {
	case IndexHash:
		h, err := index.BuildHash(ctx, t, col)
		if err != nil {
			return fmt.Errorf("catalog: building hash index %s.%s: %w", ix.Table, ix.Col, err)
		}
		ix.Hash = h
	case IndexBTree:
		bt, err := index.BuildBTree(ctx, t, col)
		if err != nil {
			return fmt.Errorf("catalog: building btree index %s.%s: %w", ix.Table, ix.Col, err)
		}
		ix.BTree = bt
	default:
		return fmt.Errorf("catalog: unknown index kind %q", ix.Kind)
	}
	return nil
}
