// Package catalog makes the storage substrate durable: a Database owns
// one pager, keeps a catalog of its tables on page 0, and can be closed
// and reopened with every table intact. In the spirit of the paper, the
// catalog itself is an extended set —
//
//	{ ⟨name, firstPage, ⟨col1, …, coln⟩⟩ , … }
//
// serialized with the canonical value codec onto the catalog page, so
// the system's metadata has the same mathematical identity as its data.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"xst/internal/core"
	"xst/internal/index"
	"xst/internal/plan"
	"xst/internal/stats"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
	"xst/internal/xlang"
)

// catalogPage is the fixed location of the catalog root.
const catalogPage = store.PageID(0)

// metaTable is the hidden system table holding collected statistics and
// index declarations as rows ⟨kind, tbl, payload⟩. It persists through
// the ordinary catalog entry on page 0 but is excluded from Names and
// the planner snapshot — "__"-prefixed names are reserved (sessions use
// them for scratch tables, which never reach the catalog).
const metaTable = "__meta"

// Index kinds recorded in __meta entries.
const (
	// IndexHash answers point (equality) lookups.
	IndexHash = "hash"
	// IndexBTree answers ordered range scans over atom columns.
	IndexBTree = "btree"
)

// Index is one declared index: its definition (persisted) plus the
// built in-memory structure (rebuilt at Open/Analyze/Vacuum). The
// structures are immutable once published — rebuilds swap in fresh
// ones, so plans compiled against an old snapshot stay safe.
type Index struct {
	Table string
	Col   string
	Kind  string
	Hash  *index.HashIndex
	BTree *index.BTree
}

// Partition kinds recorded in catalog entries.
const (
	// PartHash marks a table hash-partitioned on a column: a row lives
	// on site Digest(row[col]) % Sites.
	PartHash = "hash"
	// PartRange marks a table range-partitioned on a column under the
	// canonical value order: site i owns rows with Bounds[i-1] ≤ v <
	// Bounds[i] (site 0 is unbounded below, the last site unbounded
	// above), so len(Bounds) == Sites-1.
	PartRange = "range"
)

// Partition records how a table is sharded across a federation: which
// site's slice this database holds, how many sites there are, and the
// placement rule. It is the fourth element of a catalog entry —
// optional, so databases written before federation existed still open.
type Partition struct {
	// Kind is PartHash or PartRange.
	Kind string
	// Col is the partitioning column name.
	Col string
	// Site is this database's ordinal in the federation.
	Site int
	// Sites is the federation size.
	Sites int
	// Bounds are the range split points (PartRange only), ascending,
	// len == Sites-1.
	Bounds []core.Value
}

// valid performs structural checks shared by SetPartition and decode.
func (p Partition) valid() error {
	switch p.Kind {
	case PartHash:
		if len(p.Bounds) != 0 {
			return fmt.Errorf("catalog: hash partition carries bounds")
		}
	case PartRange:
		if len(p.Bounds) != p.Sites-1 {
			return fmt.Errorf("catalog: range partition needs %d bounds, has %d", p.Sites-1, len(p.Bounds))
		}
	default:
		return fmt.Errorf("catalog: unknown partition kind %q", p.Kind)
	}
	if p.Col == "" {
		return fmt.Errorf("catalog: partition without column")
	}
	if p.Sites < 1 || p.Site < 0 || p.Site >= p.Sites {
		return fmt.Errorf("catalog: partition site %d/%d out of range", p.Site, p.Sites)
	}
	return nil
}

// ErrNoTable reports a lookup of an undefined table.
var ErrNoTable = errors.New("catalog: no such table")

// ErrTableExists reports a duplicate CreateTable.
var ErrTableExists = errors.New("catalog: table already exists")

// ErrCatalogFull reports a catalog that no longer fits its page.
var ErrCatalogFull = errors.New("catalog: catalog page full")

// Database is a durable collection of tables over one pager.
//
// The mutex covers the metadata maps and the planner snapshot, not page
// I/O: readers (Table, Names, PlanCatalog) take the read lock, mutators
// (CreateTable, Analyze, CreateIndex, VacuumTable) the write lock.
// Compiled queries hold *table.Table and index-structure pointers
// directly, so running scans never contend with catalog changes.
type Database struct {
	pager  store.Pager
	pool   *store.BufferPool
	mu     sync.RWMutex
	tables map[string]*table.Table
	parts  map[string]Partition
	statsC map[string]*stats.TableStats
	idxs   map[string][]*Index
	// snap is the current planner catalog, rebuilt eagerly on every
	// commit and handed out as an immutable snapshot.
	snap *plan.Catalog

	// mgr runs every mutation as a wal transaction (txn.go). Databases
	// built by Create/Open log to a discard log — transactional but not
	// durable; CreateDurable/OpenDurable bind a real log.
	mgr *wal.Manager
	// writeMu serializes writers for the lifetime of a transaction
	// (single-writer, many-snapshot-readers). db.mu stays read-mostly:
	// commits hold it only for the instant that publishes new state.
	writeMu sync.Mutex
	// autoCk checkpoints the log once it exceeds this many bytes.
	autoCk int64

	// sets memoises each table's extended set for the expression
	// language, one entry per name holding the version it was built
	// from (setsMu guards the map; each entry builds once).
	setsMu sync.Mutex
	sets   map[string]*versionSet
}

// versionSet is one published table version's extended set. view pins
// the version's pages from the entry's creation until its build ends.
type versionSet struct {
	t    *table.Table
	view *store.View
	once sync.Once
	s    *core.Set
	err  error
}

func newDatabase(pager store.Pager, pool *store.BufferPool) *Database {
	return &Database{
		pager:  pager,
		pool:   pool,
		tables: map[string]*table.Table{},
		parts:  map[string]Partition{},
		statsC: map[string]*stats.TableStats{},
		idxs:   map[string][]*Index{},
		sets:   map[string]*versionSet{},
		snap:   &plan.Catalog{},
		mgr:    wal.NewManager(pager, wal.NewNullLog()),
		autoCk: defaultAutoCheckpoint,
	}
}

// Create formats a fresh database on the pager (which must be empty) and
// returns it with the given buffer-pool frame budget.
func Create(pager store.Pager, frames int) (*Database, error) {
	if pager.NumPages() != 0 {
		return nil, fmt.Errorf("catalog: pager not empty (%d pages)", pager.NumPages())
	}
	pool := store.NewBufferPool(pager, frames)
	f, err := pool.AllocatePage()
	if err != nil {
		return nil, err
	}
	if f.ID() != catalogPage {
		f.Unpin()
		return nil, fmt.Errorf("catalog: catalog page allocated as %d", f.ID())
	}
	f.Unpin()
	db := newDatabase(pager, pool)
	if err := db.writeCatalog(); err != nil {
		return nil, err
	}
	return db, nil
}

// Open reattaches to a database previously written by Create + Sync.
func Open(pager store.Pager, frames int) (*Database, error) {
	if pager.NumPages() == 0 {
		return nil, errors.New("catalog: pager empty; use Create")
	}
	pool := store.NewBufferPool(pager, frames)
	db := newDatabase(pager, pool)

	f, err := pool.Page(catalogPage)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, store.PageSize)
	copy(raw, f.Data())
	f.Unpin()

	set, err := decodeCatalog(raw)
	if err != nil {
		return nil, err
	}
	for _, m := range set.Members() {
		name, first, schema, part, err := decodeEntry(m.Elem)
		if err != nil {
			return nil, err
		}
		t, err := table.Open(pool, schema, first)
		if err != nil {
			return nil, err
		}
		db.tables[name] = t
		if part != nil {
			db.parts[name] = *part
		}
	}
	if err := db.loadMeta(); err != nil {
		return nil, err
	}
	db.rebuildSnapLocked()
	return db, nil
}

// Pool exposes the buffer pool (statistics, advanced use).
func (db *Database) Pool() *store.BufferPool { return db.pool }

// CreateTable defines a new table and persists the catalog, as one
// transaction.
func (db *Database) CreateTable(schema table.Schema) (*table.Table, error) {
	tx := db.Begin()
	if _, err := tx.CreateTable(schema); err != nil {
		tx.Abort()
		return nil, err
	}
	if err := tx.Commit(context.Background()); err != nil {
		return nil, err
	}
	return db.Table(schema.Name)
}

// Table returns a defined table.
func (db *Database) Table(name string) (*table.Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableLocked(name)
}

func (db *Database) tableLocked(name string) (*table.Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Names lists the defined tables, sorted. Reserved "__"-prefixed system
// tables (the statistics/index store) are omitted.
func (db *Database) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		if strings.HasPrefix(n, "__") {
			continue
		}
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// VacuumTable compacts a table (dropping tombstones and half-empty
// pages) and repoints the catalog at the compacted copy, as one
// transaction — readers holding a pre-vacuum snapshot keep scanning
// the old heap, whose pages become garbage only logically (page ids
// are never reused but never reclaimed — there is no free-space map).
func (db *Database) VacuumTable(name string) (*table.Table, error) {
	tx := db.Begin()
	if err := tx.Vacuum(name); err != nil {
		tx.Abort()
		return nil, err
	}
	if err := tx.Commit(context.Background()); err != nil {
		return nil, err
	}
	return db.Table(name)
}

// Sync flushes every dirty page and rewrites the catalog.
func (db *Database) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writeCatalog(); err != nil {
		return err
	}
	return db.pool.FlushAll()
}

// Close syncs and closes the pager.
func (db *Database) Close() error {
	if err := db.Sync(); err != nil {
		db.pager.Close()
		return err
	}
	return db.pager.Close()
}

// SetPartition records how a table is sharded across a federation and
// persists the catalog, as one transaction. The column must exist in
// the table's schema.
func (db *Database) SetPartition(name string, p Partition) error {
	tx := db.Begin()
	if err := tx.SetPartition(name, p); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit(context.Background())
}

// Partition reports a table's recorded partition, if any.
func (db *Database) Partition(name string) (Partition, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, ok := db.parts[name]
	return p, ok
}

// CatalogSet renders the catalog as its extended set — the value that is
// actually stored on page 0. Partitioned tables carry a fourth tuple
// element ⟨kind, col, site, sites, ⟨bounds…⟩⟩.
func (db *Database) CatalogSet() *core.Set {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.catalogSetLocked()
}

func (db *Database) catalogSetLocked() *core.Set {
	return catalogSetOf(db.tables, db.parts)
}

// writeCatalog persists page 0; callers hold the write lock (or have
// exclusive access during Create/Open).
func (db *Database) writeCatalog() error {
	enc := core.Encode(db.catalogSetLocked())
	if len(enc)+4 > store.PageSize {
		return fmt.Errorf("%w: %d bytes", ErrCatalogFull, len(enc))
	}
	f, err := db.pool.Page(catalogPage)
	if err != nil {
		return err
	}
	defer f.Unpin()
	data := f.Data()
	data[0] = byte(len(enc))
	data[1] = byte(len(enc) >> 8)
	copy(data[2:], enc)
	f.MarkDirty()
	return nil
}

// BindAll wires the database into an expression-language environment
// and materialises nothing. Query statements (`from users where …`)
// resolve their tables, indexes and statistics in the current planner
// snapshot and stream them through the cost-based planner; an
// identifier with no session binding that names a table of that
// snapshot (`users[{<1>}]`, `card(users)`) evaluates to the table as
// its extended set, built on first use and shared by every environment
// bound to this database until a commit publishes the next version
// (tableSet). Both providers re-resolve per statement, so clones of env
// see every later commit and every table created after the bind.
func (db *Database) BindAll(env *xlang.Env) error {
	env.BindPlanCatalog(db.PlanCatalog)
	env.BindTableResolver(db.tableSet)
	db.bindSysViews(env)
	return nil
}

// errSuperseded reports a table version that a commit replaced before
// its set was first built: no view can show its pages any more.
var errSuperseded = errors.New("catalog: table changed by a commit while the statement ran; retry it")

// tableSet returns the extended set of t, the version of table name that
// a planner snapshot publishes: table.ToXST of that version, built once
// and shared by every caller until a later version of the name is
// resolved, which drops it. The build reads t under a view pinned while
// t was the published version, so commits landing meanwhile stay
// invisible; a version superseded before its first build is an error.
func (db *Database) tableSet(name string, t *table.Table) (*core.Set, error) {
	e, err := db.versionEntry(name, t)
	if err != nil {
		return nil, err
	}
	e.once.Do(e.build)
	if e.err != nil {
		db.setsMu.Lock()
		if db.sets[name] == e {
			delete(db.sets, name)
		}
		db.setsMu.Unlock()
		return nil, fmt.Errorf("catalog: materialising %q: %w", name, e.err)
	}
	return e.s, nil
}

// versionEntry returns name's memo entry for version t, replacing the
// entry of any other version.
func (db *Database) versionEntry(name string, t *table.Table) (*versionSet, error) {
	db.setsMu.Lock()
	defer db.setsMu.Unlock()
	if e := db.sets[name]; e != nil && e.t == t {
		return e, nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.tables[name] != t {
		return nil, fmt.Errorf("%w: %q", errSuperseded, name)
	}
	e := &versionSet{t: t, view: db.pool.NewView()}
	db.sets[name] = e
	return e, nil
}

func (e *versionSet) build() {
	e.s, e.err = e.t.At(e.view).ToXST()
	e.view.Release()
	e.view = nil
}

// Analyze collects fresh statistics for every user table, rebuilds
// every declared index, persists both to the hidden __meta table, and
// republishes the planner snapshot — one transaction. It returns the
// number of tables analyzed. This is the `.analyze` admin command's
// engine.
func (db *Database) Analyze(ctx context.Context) (int, error) {
	tx := db.Begin()
	n, err := tx.analyze(ctx)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	if err := tx.Commit(ctx); err != nil {
		return 0, err
	}
	return n, nil
}

// Stats reports the persisted statistics for one table, if analyzed.
func (db *Database) Stats(name string) (*stats.TableStats, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ts, ok := db.statsC[name]
	return ts, ok
}

// StatsCatalog returns the persisted statistics keyed by table name (a
// fresh map; the TableStats values are shared and immutable).
func (db *Database) StatsCatalog() stats.Catalog {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cat := make(stats.Catalog, len(db.statsC))
	for name, ts := range db.statsC {
		cat[name] = ts
	}
	return cat
}

// CreateIndex declares and builds an index on table.col, persists the
// declaration, and republishes the planner snapshot — one transaction.
// Kind is IndexHash (point lookups) or IndexBTree (ordered ranges;
// atom columns only).
func (db *Database) CreateIndex(ctx context.Context, tbl, col, kind string) (*Index, error) {
	tx := db.Begin()
	// The writer lock (held by the transaction) excludes concurrent
	// metadata mutation, so the catalog read below needs only a brief
	// RLock — released before Commit, which takes db.mu itself.
	ix, err := func() (*Index, error) {
		db.mu.RLock()
		defer db.mu.RUnlock()
		if strings.HasPrefix(tbl, "__") {
			return nil, fmt.Errorf("%w: %q", ErrNoTable, tbl)
		}
		t, err := db.tableLocked(tbl)
		if err != nil {
			return nil, err
		}
		if t.Schema().Col(col) < 0 {
			return nil, fmt.Errorf("catalog: index column %q not in %s(%s)", col, tbl, t.Schema().Cols)
		}
		if kind != IndexHash && kind != IndexBTree {
			return nil, fmt.Errorf("catalog: unknown index kind %q (want %s or %s)", kind, IndexHash, IndexBTree)
		}
		for _, ix := range db.idxs[tbl] {
			if ix.Col == col && ix.Kind == kind {
				return nil, fmt.Errorf("catalog: index on %s.%s (%s) already exists", tbl, col, kind)
			}
		}
		ix := &Index{Table: tbl, Col: col, Kind: kind}
		if err := buildIndexOn(ctx, t, ix); err != nil {
			return nil, err
		}
		tx.newIdxs = map[string][]*Index{tbl: append(append([]*Index{}, db.idxs[tbl]...), ix)}
		tx.metaDirty = true
		return ix, nil
	}()
	if err != nil {
		tx.Abort()
		return nil, err
	}
	if err := tx.Commit(ctx); err != nil {
		return nil, err
	}
	return ix, nil
}

// Indexes reports the declared indexes on a table.
func (db *Database) Indexes(tbl string) []*Index {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]*Index(nil), db.idxs[tbl]...)
}

// PlanCatalog returns the current planner catalog snapshot (tables,
// statistics and built indexes). The snapshot is immutable — mutations
// publish a fresh one — so callers may hold it across a whole query.
func (db *Database) PlanCatalog() *plan.Catalog {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.snap
}

// rebuildSnapLocked republishes the planner catalog from the current
// tables, statistics and index structures. Always a fresh value:
// snapshots already handed out stay internally consistent. Reserved
// "__"-prefixed tables stay out of it, as they do out of Names.
func (db *Database) rebuildSnapLocked() {
	snap := &plan.Catalog{
		Tables: make(map[string]*table.Table, len(db.tables)),
		Stats:  make(stats.Catalog, len(db.statsC)),
	}
	for name, t := range db.tables {
		if !strings.HasPrefix(name, "__") {
			snap.Tables[name] = t
		}
	}
	for name, ts := range db.statsC {
		snap.Stats[name] = ts
	}
	names := make([]string, 0, len(db.idxs))
	for name := range db.idxs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t, ok := db.tables[name]
		if !ok {
			continue
		}
		for _, ix := range db.idxs[name] {
			ti := &plan.TableIndex{Table: t, Col: ix.Col, Hash: ix.Hash, BTree: ix.BTree}
			if ix.Kind == IndexBTree {
				ti.Kind = plan.BTreeIdx
			}
			snap.Indexes = append(snap.Indexes, ti)
		}
	}
	db.snap = snap
}

var metaSchema = table.Schema{Name: metaTable, Cols: []string{"kind", "tbl", "payload"}}

// loadMeta restores statistics and index declarations from __meta at
// Open time, rebuilding every index structure. Called before the
// database is shared, so no locking.
func (db *Database) loadMeta() error {
	t, ok := db.tables[metaTable]
	if !ok {
		return nil
	}
	type idxDef struct{ tbl, col, kind string }
	var defs []idxDef
	err := t.Scan(func(_ store.RID, r table.Row) (bool, error) {
		if len(r) != 3 {
			return false, fmt.Errorf("catalog: bad __meta row %v", r)
		}
		kind, kok := r[0].(core.Str)
		tbl, tok := r[1].(core.Str)
		if !kok || !tok {
			return false, fmt.Errorf("catalog: bad __meta row %v", r)
		}
		switch string(kind) {
		case "stats":
			ts, err := stats.DecodeTableStats(r[2])
			if err != nil {
				return false, fmt.Errorf("catalog: __meta stats for %q: %w", tbl, err)
			}
			db.statsC[string(tbl)] = ts
		case "index":
			elems, ok := core.TupleElems(r[2])
			if !ok || len(elems) != 2 {
				return false, fmt.Errorf("catalog: bad __meta index payload %v", r[2])
			}
			col, cok := elems[0].(core.Str)
			ikind, iok := elems[1].(core.Str)
			if !cok || !iok {
				return false, fmt.Errorf("catalog: bad __meta index payload %v", r[2])
			}
			defs = append(defs, idxDef{tbl: string(tbl), col: string(col), kind: string(ikind)})
		default:
			return false, fmt.Errorf("catalog: unknown __meta kind %q", kind)
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	for _, d := range defs {
		t, ok := db.tables[d.tbl]
		if !ok {
			return fmt.Errorf("%w: %q (from __meta index)", ErrNoTable, d.tbl)
		}
		ix := &Index{Table: d.tbl, Col: d.col, Kind: d.kind}
		if err := buildIndexOn(context.Background(), t, ix); err != nil {
			return err
		}
		db.idxs[d.tbl] = append(db.idxs[d.tbl], ix)
	}
	return nil
}

func decodeCatalog(raw []byte) (*core.Set, error) {
	n := int(raw[0]) | int(raw[1])<<8
	if n+2 > len(raw) {
		return nil, errors.New("catalog: corrupt catalog length")
	}
	v, err := core.DecodeFull(raw[2 : 2+n])
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	s, ok := v.(*core.Set)
	if !ok {
		return nil, errors.New("catalog: catalog value is not a set")
	}
	return s, nil
}

func decodeEntry(v core.Value) (name string, first store.PageID, schema table.Schema, part *Partition, err error) {
	elems, ok := core.TupleElems(v)
	if !ok || len(elems) < 3 || len(elems) > 4 {
		return "", 0, table.Schema{}, nil, fmt.Errorf("catalog: bad entry %v", v)
	}
	n, ok := elems[0].(core.Str)
	if !ok {
		return "", 0, table.Schema{}, nil, fmt.Errorf("catalog: bad name in %v", v)
	}
	pg, ok := elems[1].(core.Int)
	if !ok || pg < 0 {
		return "", 0, table.Schema{}, nil, fmt.Errorf("catalog: bad page in %v", v)
	}
	colVals, ok := core.TupleElems(elems[2])
	if !ok {
		return "", 0, table.Schema{}, nil, fmt.Errorf("catalog: bad columns in %v", v)
	}
	cols := make([]string, len(colVals))
	for i, cv := range colVals {
		cs, ok := cv.(core.Str)
		if !ok {
			return "", 0, table.Schema{}, nil, fmt.Errorf("catalog: bad column %v", cv)
		}
		cols[i] = string(cs)
	}
	if len(elems) == 4 {
		if part, err = decodePartition(elems[3]); err != nil {
			return "", 0, table.Schema{}, nil, err
		}
	}
	return string(n), store.PageID(pg), table.Schema{Name: string(n), Cols: cols}, part, nil
}

func decodePartition(v core.Value) (*Partition, error) {
	elems, ok := core.TupleElems(v)
	if !ok || len(elems) != 5 {
		return nil, fmt.Errorf("catalog: bad partition %v", v)
	}
	kind, kok := elems[0].(core.Str)
	col, cok := elems[1].(core.Str)
	site, sok := elems[2].(core.Int)
	sites, tok := elems[3].(core.Int)
	bounds, bok := core.TupleElems(elems[4])
	if !kok || !cok || !sok || !tok || !bok {
		return nil, fmt.Errorf("catalog: bad partition %v", v)
	}
	p := Partition{Kind: string(kind), Col: string(col), Site: int(site), Sites: int(sites)}
	if len(bounds) > 0 {
		p.Bounds = append([]core.Value(nil), bounds...)
	}
	if err := p.valid(); err != nil {
		return nil, err
	}
	return &p, nil
}
