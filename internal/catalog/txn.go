package catalog

import (
	"context"
	"fmt"
	"sort"
	"strings"

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
//   - Commit appends the after-images and a commit marker to the log,
//     fsyncs, then installs the images through store.CommitPages —
//     which advances the MVCC epoch and parks superseded images for
//     active snapshot views — and finally publishes the new table
//     structs, index versions, and planner snapshot under db.mu, all
//     while a snapshot reader observes either the whole commit or none
//     of it.
//
// Incremental index maintenance rides the same commit: each declared
// index on a table that received inserts is republished as a path-copied
// successor (HashIndex.WithInserts / BTree.Inserted) at a cost
// proportional to the rows committed. The planner snapshot names the new
// table structs and the new index versions together, so every session's
// next point lookup takes the index path, whoever committed.

// txnIO adapts a wal.Txn to store.PageIO: reads resolve shadow-first
// then fall through to the committed image in the pool; the first
// MarkDirty on a page installs its buffer into the shadow.
type txnIO struct {
	tx   *wal.Txn
	pool *store.BufferPool
}

// txnPage is one page handle inside a transaction. buf is either the
// live shadow buffer (inShadow) or a private copy of the committed
// image that joins the shadow on the first MarkDirty.
type txnPage struct {
	io       *txnIO
	id       store.PageID
	buf      []byte
	inShadow bool
}

func (p *txnPage) ID() store.PageID { return p.id }
func (p *txnPage) Data() []byte     { return p.buf }
func (p *txnPage) Unpin()           {}

func (p *txnPage) MarkDirty() {
	if !p.inShadow {
		p.io.tx.Install(p.id, p.buf)
		p.inShadow = true
	}
}

// Page implements store.PageIO.
func (io *txnIO) Page(id store.PageID) (store.PageHandle, error) {
	if img, ok := io.tx.ShadowPage(id); ok {
		return &txnPage{io: io, id: id, buf: img, inShadow: true}, nil
	}
	fr, err := io.pool.Get(id)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, store.PageSize)
	copy(buf, fr.Data())
	fr.Unpin()
	return &txnPage{io: io, id: id, buf: buf}, nil
}

// AllocatePage implements store.PageIO. The id comes from the base
// pager (ids are never reused, so an abort just strands a zero page);
// the zeroed image sits in the shadow already.
func (io *txnIO) AllocatePage() (store.PageHandle, error) {
	id, err := io.tx.Allocate()
	if err != nil {
		return nil, err
	}
	img, _ := io.tx.ShadowPage(id)
	return &txnPage{io: io, id: id, buf: img, inShadow: true}, nil
}

// insertRec is one staged row for incremental index maintenance.
type insertRec struct {
	rid store.RID
	row table.Row
}

// tableState is one table touched by a transaction: the writable clone
// bound to the transaction's shadow, the rows it inserted (for index
// maintenance at commit), and whether the heap was replaced outright
// (create/vacuum/meta rewrite), which forces a full index rebuild
// instead.
type tableState struct {
	t        *table.Table
	ins      []insertRec
	replaced bool
}

// Txn is one atomic statement against the database: reads see the
// committed state plus the transaction's own writes; Commit publishes
// everything (pages, catalog, indexes, planner snapshot) in one epoch,
// and Abort discards it all. Exactly one of Commit/Abort must be
// called; Begin holds the writer lock until then.
type Txn struct {
	db        *Database
	wtx       *wal.Txn
	io        *txnIO
	tables    map[string]*tableState
	parts     map[string]Partition
	newStats  map[string]*stats.TableStats // full replacement when non-nil
	newIdxs   map[string][]*Index          // per-table replacement
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
		db:     db,
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
	t, err := tx.db.Table(name)
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
	if _, ok := tx.tables[schema.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, schema.Name)
	}
	tx.db.mu.RLock()
	_, exists := tx.db.tables[schema.Name]
	tx.db.mu.RUnlock()
	if exists {
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
		if t, err = tx.db.Table(name); err != nil {
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
	old := tx.db.idxs[name]
	if staged, ok := tx.newIdxs[name]; ok {
		old = staged
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

// Commit makes the transaction durable and visible: catalog page and
// __meta rewrites join the shadow, the wal logs and fsyncs every
// after-image, the buffer pool installs them under a new MVCC epoch,
// and the table structs / index versions / planner snapshot publish
// atomically with that epoch. On error the transaction is dead (the
// writer lock is released); the database keeps serving its last
// committed state.
func (tx *Txn) Commit(ctx context.Context) error {
	if tx.done {
		return wal.ErrTxnDone
	}
	tx.done = true
	db := tx.db
	defer db.writeMu.Unlock()
	if tx.metaDirty {
		if err := tx.stageMeta(); err != nil {
			tx.wtx.Abort()
			return err
		}
	}
	if tx.catDirty {
		if err := tx.stageCatalogPage(); err != nil {
			tx.wtx.Abort()
			return err
		}
	}

	sp := trace.SpanOf(ctx).Start("wal")
	sp.AddBatches(tx.wtx.Pages())
	db.mu.Lock()
	err := tx.wtx.CommitWith(func(pages map[store.PageID][]byte, fresh map[store.PageID]bool) error {
		_, err := db.pool.CommitPages(pages, fresh)
		return err
	})
	if err != nil {
		db.mu.Unlock()
		sp.End()
		return err
	}
	tx.publishLocked()
	db.mu.Unlock()
	sp.End()

	// Auto-checkpoint: fold the log into the base once it outgrows the
	// threshold. Still under writeMu, so no transaction is in flight.
	if db.autoCk > 0 && db.mgr.LoggedBytes() >= db.autoCk {
		if err := db.mgr.Checkpoint(); err != nil {
			return fmt.Errorf("catalog: auto checkpoint: %w", err)
		}
	}
	return nil
}

// stageMeta rewrites the hidden __meta table (statistics + index
// declarations) into a fresh shadow-bound heap — the same rewrite
// persistMeta does outside transactions, but atomic with the commit.
func (tx *Txn) stageMeta() error {
	db := tx.db
	mt, err := table.CreateIn(tx.io, db.pool, metaSchema)
	if err != nil {
		return err
	}
	statsC := tx.newStats
	if statsC == nil {
		statsC = db.StatsCatalog()
	}
	decls := tx.mergedIdxDecls()
	if err := fillMeta(mt, statsC, decls); err != nil {
		return err
	}
	tx.tables[metaTable] = &tableState{t: mt, replaced: true}
	tx.catDirty = true
	return nil
}

// mergedIdxDecls returns the transaction's view of the per-table index
// lists: committed, overlaid with staged replacements.
func (tx *Txn) mergedIdxDecls() map[string][]*Index {
	db := tx.db
	db.mu.RLock()
	out := make(map[string][]*Index, len(db.idxs))
	for name, list := range db.idxs {
		out[name] = list
	}
	db.mu.RUnlock()
	for name, list := range tx.newIdxs {
		if len(list) == 0 {
			delete(out, name)
			continue
		}
		out[name] = list
	}
	return out
}

// stageCatalogPage writes the merged catalog set onto page 0 through
// the transaction shadow.
func (tx *Txn) stageCatalogPage() error {
	db := tx.db
	db.mu.RLock()
	tables := make(map[string]*table.Table, len(db.tables)+len(tx.tables))
	for name, t := range db.tables {
		tables[name] = t
	}
	parts := make(map[string]Partition, len(db.parts)+len(tx.parts))
	for name, p := range db.parts {
		parts[name] = p
	}
	db.mu.RUnlock()
	for name, st := range tx.tables {
		tables[name] = st.t
	}
	for name, p := range tx.parts {
		parts[name] = p
	}
	enc := core.Encode(catalogSetOf(tables, parts))
	if len(enc)+4 > store.PageSize {
		return fmt.Errorf("%w: %d bytes", ErrCatalogFull, len(enc))
	}
	fr, err := tx.io.Page(catalogPage)
	if err != nil {
		return err
	}
	data := fr.Data()
	data[0] = byte(len(enc))
	data[1] = byte(len(enc) >> 8)
	copy(data[2:], enc)
	fr.MarkDirty()
	fr.Unpin()
	return nil
}

// publishLocked installs the transaction's results into the live
// database maps; db.mu is held, so readers see the new tables, parts,
// stats, indexes and planner snapshot at once — and, because the MVCC
// epoch advanced in the same critical section, a BeginRead either
// pairs the old snapshot with the old epoch or the new with the new.
func (tx *Txn) publishLocked() {
	db := tx.db
	for name, st := range tx.tables {
		db.tables[name] = st.t.WithIO(db.pool)
	}
	for name, p := range tx.parts {
		db.parts[name] = p
	}
	if tx.newStats != nil {
		db.statsC = tx.newStats
	}
	for name, list := range tx.newIdxs {
		if len(list) == 0 {
			delete(db.idxs, name)
			continue
		}
		db.idxs[name] = list
	}
	// Incremental index maintenance: tables that took inserts republish
	// each declared index as a path-copied successor of the committed
	// structure. Replaced heaps (create/vacuum) were already rebuilt in
	// full via newIdxs.
	for name, st := range tx.tables {
		if st.replaced || len(st.ins) == 0 {
			continue
		}
		if _, staged := tx.newIdxs[name]; staged {
			continue
		}
		old := db.idxs[name]
		if len(old) == 0 {
			continue
		}
		fresh := make([]*Index, len(old))
		for i, ix := range old {
			fresh[i] = extendIndex(ix, db.tables[name], st.ins)
		}
		db.idxs[name] = fresh
	}
	db.rebuildSnapLocked()
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
		entries := make([]index.Entry, 0, len(ins))
		for _, in := range ins {
			entries = append(entries, index.Entry{Key: core.Key(in.row[col]), RID: in.rid})
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

// catalogSetOf renders a catalog set from explicit table/partition
// maps (shared by the committed path and the transaction's merge).
func catalogSetOf(tables map[string]*table.Table, parts map[string]Partition) *core.Set {
	b := core.NewBuilder(len(tables))
	for name, t := range tables {
		cols := make([]core.Value, len(t.Schema().Cols))
		for i, c := range t.Schema().Cols {
			cols[i] = core.Str(c)
		}
		elems := []core.Value{core.Str(name), core.Int(int64(t.FirstPage())), core.Tuple(cols...)}
		if p, ok := parts[name]; ok {
			elems = append(elems, core.Tuple(core.Str(p.Kind), core.Str(p.Col),
				core.Int(int64(p.Site)), core.Int(int64(p.Sites)), core.Tuple(p.Bounds...)))
		}
		b.AddClassical(core.Tuple(elems...))
	}
	return b.Set()
}

// fillMeta writes the statistics and index-declaration rows into a
// fresh __meta table (shared by persistMeta and stageMeta).
func fillMeta(t *table.Table, statsC map[string]*stats.TableStats, idxs map[string][]*Index) error {
	names := make([]string, 0, len(statsC))
	for name := range statsC {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row := table.Row{core.Str("stats"), core.Str(name), statsC[name].Value()}
		if _, err := t.Insert(row); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range idxs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, ix := range idxs[name] {
			row := table.Row{core.Str("index"), core.Str(name), core.Tuple(core.Str(ix.Col), core.Str(ix.Kind))}
			if _, err := t.Insert(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// analyzeTxn is Analyze's transactional engine: collect fresh
// statistics and rebuilt indexes from the committed tables, stage them
// with a __meta rewrite, and commit.
func (tx *Txn) analyze(ctx context.Context) (int, error) {
	db := tx.db
	db.mu.RLock()
	tables := make(map[string]*table.Table, len(db.tables))
	for name, t := range db.tables {
		tables[name] = t
	}
	decls := make(map[string][]*Index, len(db.idxs))
	for name, list := range db.idxs {
		decls[name] = list
	}
	db.mu.RUnlock()

	fresh := map[string]*stats.TableStats{}
	for name, t := range tables {
		if strings.HasPrefix(name, "__") {
			continue
		}
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
	for name, list := range decls {
		t, ok := tables[name]
		if !ok {
			continue
		}
		rebuilt := make([]*Index, 0, len(list))
		for _, ix := range list {
			nix := &Index{Table: ix.Table, Col: ix.Col, Kind: ix.Kind}
			if err := buildIndexOn(ctx, t, nix); err != nil {
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
