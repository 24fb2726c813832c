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
// Its committed state is one immutable version (cur), which a commit
// replaces under the write lock of mu; readers (Table, Names,
// PlanCatalog, BeginRead, …) take the read lock only to load it, never
// across page I/O. Compiled queries hold *table.Table and index-structure
// pointers directly, so running scans never contend with catalog changes.
type Database struct {
	pager store.Pager
	pool  *store.BufferPool
	mu    sync.RWMutex
	cur   *version

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

// version is one committed state of the database: every table (the
// reserved "__" ones included), the partitions, the statistics, the
// index declarations with their built structures, and the planner
// snapshot over them, which holds the statistics. Nothing in a version changes once it is
// published; a commit builds its successor, sharing every map the commit
// left alone (txn.go). Page 0 holds its catalog set.
type version struct {
	tables map[string]*table.Table
	parts  map[string]Partition
	idxs   map[string][]*Index
	plan   *plan.Catalog
}

// current returns the published version.
func (db *Database) current() *version {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cur
}

// versionSet is one published table version's extended set.
type versionSet struct {
	t    *table.Table
	once sync.Once
	s    *core.Set
	err  error
}

func newDatabase(pager store.Pager, pool *store.BufferPool) *Database {
	return &Database{
		pager:  pager,
		pool:   pool,
		cur:    &version{plan: &plan.Catalog{}},
		sets:   map[string]*versionSet{},
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
	db := newDatabase(pager, store.NewBufferPool(pager, frames))
	// The first commit allocates page 0 and writes the empty catalog on it.
	tx := db.Begin()
	defer tx.Abort()
	f, err := tx.io.AllocatePage()
	if err != nil {
		return nil, err
	}
	if f.ID() != catalogPage {
		return nil, fmt.Errorf("catalog: catalog page allocated as %d", f.ID())
	}
	tx.catDirty = true
	if err := tx.Commit(context.Background()); err != nil {
		return nil, err
	}
	return db, nil
}

// Open reattaches to a database previously written by Create.
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
	v := &version{
		tables: map[string]*table.Table{},
		parts:  map[string]Partition{},
		idxs:   map[string][]*Index{},
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
		v.tables[name] = t
		if part != nil {
			v.parts[name] = *part
		}
	}
	st, err := v.loadMeta()
	if err != nil {
		return nil, err
	}
	v.plan = planOf(v, st, db.cur.plan, func(string) bool { return true })
	db.cur = v
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
	return db.current().table(name)
}

func (v *version) table(name string) (*table.Table, error) {
	t, ok := v.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Names lists the defined tables, sorted. Reserved "__"-prefixed system
// tables (the statistics/index store) are omitted.
func (db *Database) Names() []string {
	return sortedNames(db.current().plan.Tables)
}

// sortedNames lists a map's keys, sorted.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for n := range m {
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

// Sync flushes every dirty page. Commits write their pages, page 0
// included, through to the pager, so only pages changed in place outside
// a transaction are dirty.
func (db *Database) Sync() error {
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
	p, ok := db.current().parts[name]
	return p, ok
}

// CatalogSet renders the catalog as its extended set — the value that is
// actually stored on page 0. Partitioned tables carry a fourth tuple
// element ⟨kind, col, site, sites, ⟨bounds…⟩⟩.
func (db *Database) CatalogSet() *core.Set {
	return db.current().catalogSet()
}

func (v *version) catalogSet() *core.Set {
	b := core.NewBuilder(len(v.tables))
	for name, t := range v.tables {
		cols := make([]core.Value, len(t.Schema().Cols))
		for i, c := range t.Schema().Cols {
			cols[i] = core.Str(c)
		}
		elems := []core.Value{core.Str(name), core.Int(int64(t.FirstPage())), core.Tuple(cols...)}
		if p, ok := v.parts[name]; ok {
			elems = append(elems, core.Tuple(core.Str(p.Kind), core.Str(p.Col),
				core.Int(int64(p.Site)), core.Int(int64(p.Sites)), core.Tuple(p.Bounds...)))
		}
		b.AddClassical(core.Tuple(elems...))
	}
	return b.Set()
}

// writeCatalogPage encodes v's catalog set onto page 0 through io — the
// page's one writer, run inside the commit that publishes v.
func writeCatalogPage(io store.PageIO, v *version) error {
	enc := core.Encode(v.catalogSet())
	if len(enc)+4 > store.PageSize {
		return fmt.Errorf("%w: %d bytes", ErrCatalogFull, len(enc))
	}
	f, err := io.Page(catalogPage)
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
// and materialises nothing. Its one reader is BeginRead: each statement
// pins the planner catalog and its page view together once, runs a
// query (`from users where …`) at them, and reads an identifier with no
// session binding that names a table of that catalog (`card(users)`) as
// the version's extended set (tableSet). Clones of env see every later
// commit and every table created after the bind.
func (db *Database) BindAll(env *xlang.Env) error {
	env.BindReader(db.BeginRead, db.tableSet)
	db.bindSysViews(env)
	return nil
}

// tableSet returns the extended set of t, a table version named by the
// catalog pinned with view: table.ToXST of t read under view, which
// shows exactly t's rows, built once and shared by every caller until a
// later version of the name is resolved, which drops it.
func (db *Database) tableSet(name string, t *table.Table, view *store.View) (*core.Set, error) {
	e := db.versionEntry(name, t)
	e.once.Do(func() { e.s, e.err = t.At(view).ToXST() })
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
func (db *Database) versionEntry(name string, t *table.Table) *versionSet {
	db.setsMu.Lock()
	defer db.setsMu.Unlock()
	e := db.sets[name]
	if e == nil || e.t != t {
		e = &versionSet{t: t}
		db.sets[name] = e
	}
	return e
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
	ts, ok := db.current().plan.Stats[name]
	return ts, ok
}

// CreateIndex declares and builds an index on table.col, persists the
// declaration, and republishes the planner snapshot — one transaction.
// Kind is IndexHash (point lookups) or IndexBTree (ordered ranges;
// atom columns only).
func (db *Database) CreateIndex(ctx context.Context, tbl, col, kind string) (*Index, error) {
	tx := db.Begin()
	defer tx.Abort()
	t, ok := tx.base.plan.Tables[tbl] // reserved "__" tables take no index
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, tbl)
	}
	if t.Schema().Col(col) < 0 {
		return nil, fmt.Errorf("catalog: index column %q not in %s(%s)", col, tbl, t.Schema().Cols)
	}
	if kind != IndexHash && kind != IndexBTree {
		return nil, fmt.Errorf("catalog: unknown index kind %q (want %s or %s)", kind, IndexHash, IndexBTree)
	}
	old := tx.base.idxs[tbl]
	for _, ix := range old {
		if ix.Col == col && ix.Kind == kind {
			return nil, fmt.Errorf("catalog: index on %s.%s (%s) already exists", tbl, col, kind)
		}
	}
	ix := &Index{Table: tbl, Col: col, Kind: kind}
	if err := buildIndexOn(ctx, t, ix); err != nil {
		return nil, err
	}
	tx.newIdxs = map[string][]*Index{tbl: append(old[:len(old):len(old)], ix)}
	tx.metaDirty = true
	if err := tx.Commit(ctx); err != nil {
		return nil, err
	}
	return ix, nil
}

// Indexes reports the declared indexes on a table.
func (db *Database) Indexes(tbl string) []*Index {
	return append([]*Index(nil), db.current().idxs[tbl]...)
}

// PlanCatalog returns the current planner catalog snapshot (tables,
// statistics and built indexes). The snapshot is immutable — mutations
// publish a fresh one — so callers may hold it across a whole query.
func (db *Database) PlanCatalog() *plan.Catalog {
	return db.current().plan
}

// planOf returns the planner snapshot of v with statistics st, derived
// from prev, the snapshot of the version v succeeds: prev's index
// entries carry over for every table moved reports unchanged, and each
// other index gets an entry over its table's v struct. Reserved "__"-prefixed tables stay
// out of it, as they do out of Names.
func planOf(v *version, st stats.Catalog, prev *plan.Catalog, moved func(name string) bool) *plan.Catalog {
	p := &plan.Catalog{
		Tables:  make(map[string]*table.Table, len(v.tables)),
		Stats:   st,
		Indexes: make([]*plan.TableIndex, 0, len(prev.Indexes)),
	}
	for name, t := range v.tables {
		if !strings.HasPrefix(name, "__") {
			p.Tables[name] = t
		}
	}
	for _, ti := range prev.Indexes {
		if !moved(ti.Table.Schema().Name) {
			p.Indexes = append(p.Indexes, ti)
		}
	}
	for name, list := range v.idxs {
		if !moved(name) {
			continue
		}
		for _, ix := range list {
			ti := &plan.TableIndex{Table: v.tables[name], Col: ix.Col, Hash: ix.Hash, BTree: ix.BTree}
			if ix.Kind == IndexBTree {
				ti.Kind = plan.BTreeIdx
			}
			p.Indexes = append(p.Indexes, ti)
		}
	}
	return p
}

var metaSchema = table.Schema{Name: metaTable, Cols: []string{"kind", "tbl", "payload"}}

// loadMeta restores index declarations from __meta at Open time,
// rebuilding every index structure, and returns the statistics.
func (v *version) loadMeta() (stats.Catalog, error) {
	st := stats.Catalog{}
	t, ok := v.tables[metaTable]
	if !ok {
		return st, nil
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
			st[string(tbl)] = ts
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
		return nil, err
	}
	for _, d := range defs {
		t, ok := v.tables[d.tbl]
		if !ok {
			return nil, fmt.Errorf("%w: %q (from __meta index)", ErrNoTable, d.tbl)
		}
		ix := &Index{Table: d.tbl, Col: d.col, Kind: d.kind}
		if err := buildIndexOn(context.Background(), t, ix); err != nil {
			return nil, err
		}
		v.idxs[d.tbl] = append(v.idxs[d.tbl], ix)
	}
	return st, nil
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
