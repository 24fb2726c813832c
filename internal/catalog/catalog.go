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
	"sync"

	"xst/internal/core"
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
// the ordinary catalog entry on page 0 but is kept out of the planner
// catalog, and so out of Names — "__"-prefixed names are reserved
// (sessions use them for scratch tables, which never reach the catalog).
const metaTable = "__meta"

// The spellings of the index kinds that CreateIndex accepts and __meta
// stores; plan.IndexKind.String writes them back.
const (
	// IndexHash answers point (equality) lookups.
	IndexHash = "hash"
	// IndexBTree answers ordered range scans over atom columns.
	IndexBTree = "btree"
)

// parseKind reads an index kind's spelling.
func parseKind(kind string) (plan.IndexKind, error) {
	switch kind {
	case IndexHash:
		return plan.HashIdx, nil
	case IndexBTree:
		return plan.BTreeIdx, nil
	}
	return 0, fmt.Errorf("catalog: unknown index kind %q (want %s or %s)", kind, IndexHash, IndexBTree)
}

// Index is one declared index over one table version, with its built
// structure: the planner catalog's own entry, so a version describes
// its indexes once.
type Index = plan.TableIndex

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
// A table's extended set hangs on its table version (Table.SetAt), so a
// commit has nothing to invalidate.
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
}

// version is one committed state of the database: the planner catalog
// (the user tables, their statistics, and their indexes with built
// structures), the partitions, and the __meta table that persists the
// statistics and index declarations. Nothing in a version changes once
// it is published; a commit builds its successor, sharing whatever the
// commit left alone (txn.go). Page 0 holds its catalog set.
type version struct {
	plan  *plan.Catalog
	parts map[string]Partition
	meta  *table.Table // nil until the first statistics or index
}

// current returns the published version.
func (db *Database) current() *version {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cur
}

func newDatabase(pager store.Pager, pool *store.BufferPool) *Database {
	return &Database{
		pager:  pager,
		pool:   pool,
		cur:    &version{plan: &plan.Catalog{}},
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
	v := &version{parts: map[string]Partition{}}
	tables := map[string]*table.Table{}
	for _, m := range set.Members() {
		name, first, schema, part, err := decodeEntry(m.Elem)
		if err != nil {
			return nil, err
		}
		t, err := table.Open(pool, schema, first)
		if err != nil {
			return nil, err
		}
		if name == metaTable {
			v.meta = t
		} else {
			tables[name] = t
		}
		if part != nil {
			v.parts[name] = *part
		}
	}
	if v.plan, err = loadMeta(tables, v.meta); err != nil {
		return nil, err
	}
	db.cur = v
	return db, nil
}

// Pool exposes the buffer pool (statistics, advanced use).
func (db *Database) Pool() *store.BufferPool { return db.pool }

// CreateTable defines a new table and persists the catalog, as one
// transaction. It returns the published, empty version; Load fills it.
func (db *Database) CreateTable(schema table.Schema) (*table.Table, error) {
	tx := db.Begin()
	if err := tx.CreateTable(schema); err != nil {
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
	t, ok := v.plan.Tables[name]
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

// Sync flushes every dirty page. It finds none: no page of a database
// changes outside a commit, which writes its pages through to the pager.
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
	b := core.NewBuilder(len(v.plan.Tables) + 1)
	for name, t := range v.plan.Tables {
		b.AddClassical(v.entry(name, t))
	}
	if v.meta != nil {
		b.AddClassical(v.entry(metaTable, v.meta))
	}
	return b.Set()
}

// entry is one table's member of the catalog set.
func (v *version) entry(name string, t *table.Table) *core.Set {
	cols := make([]core.Value, len(t.Schema().Cols))
	for i, c := range t.Schema().Cols {
		cols[i] = core.Str(c)
	}
	elems := []core.Value{core.Str(name), core.Int(int64(t.FirstPage())), core.Tuple(cols...)}
	if p, ok := v.parts[name]; ok {
		elems = append(elems, core.Tuple(core.Str(p.Kind), core.Str(p.Col),
			core.Int(int64(p.Site)), core.Int(int64(p.Sites)), core.Tuple(p.Bounds...)))
	}
	return core.Tuple(elems...)
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
// that table version's extended set (tableSet). Clones of env see every
// later commit and every table created after the bind.
func (db *Database) BindAll(env *xlang.Env) error {
	env.BindReader(db.BeginRead, tableSet)
	db.bindSysViews(env)
	return nil
}

// tableSet is the resolver BindAll binds: the extended set of t, a
// table version named by the catalog pinned with view.
func tableSet(name string, t *table.Table, view *store.View) (*core.Set, error) {
	s, err := t.SetAt(view)
	if err != nil {
		return nil, fmt.Errorf("catalog: materialising %q: %w", name, err)
	}
	return s, nil
}

// Analyze collects fresh statistics for every user table, persists them
// to the hidden __meta table, and republishes the planner snapshot — one
// transaction. It builds no index: record ids never move, so every index
// already answers for its table's version. It returns the
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
	t, err := tx.base.table(tbl)
	if err != nil {
		return nil, err
	}
	if t.Schema().Col(col) < 0 {
		return nil, fmt.Errorf("catalog: index column %q not in %s(%s)", col, tbl, t.Schema().Cols)
	}
	k, err := parseKind(kind)
	if err != nil {
		return nil, err
	}
	for _, ix := range indexesOn(tx.base.plan, tbl) {
		if ix.Col == col && ix.Kind == k {
			return nil, fmt.Errorf("catalog: index on %s.%s (%s) already exists", tbl, col, kind)
		}
	}
	ix, err := buildIndex(ctx, t, col, k)
	if err != nil {
		return nil, err
	}
	tx.created = ix
	tx.metaDirty = true
	if err := tx.Commit(ctx); err != nil {
		return nil, err
	}
	return ix, nil
}

// Indexes reports the declared indexes on a table.
func (db *Database) Indexes(tbl string) []*Index {
	return indexesOn(db.current().plan, tbl)
}

// indexesOn lists c's indexes on the table named tbl, in declaration
// order.
func indexesOn(c *plan.Catalog, tbl string) []*Index {
	var out []*Index
	for _, ix := range c.Indexes {
		if ix.Table.Schema().Name == tbl {
			out = append(out, ix)
		}
	}
	return out
}

// byTable returns the indexes sorted by table name, each table's in
// declaration order: the order __meta stores them in.
func byTable(idxs []*Index) []*Index {
	out := append([]*Index(nil), idxs...)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Table.Schema().Name < out[j].Table.Schema().Name
	})
	return out
}

// PlanCatalog returns the current planner catalog snapshot (tables,
// statistics and built indexes). The snapshot is immutable — mutations
// publish a fresh one — so callers may hold it across a whole query.
func (db *Database) PlanCatalog() *plan.Catalog {
	return db.current().plan
}

var metaSchema = table.Schema{Name: metaTable, Cols: []string{"kind", "tbl", "payload"}}

// loadMeta returns the planner catalog of tables at Open: the statistics
// and index declarations meta holds, every index built.
func loadMeta(tables map[string]*table.Table, meta *table.Table) (*plan.Catalog, error) {
	c := &plan.Catalog{Tables: tables, Stats: stats.Catalog{}}
	if meta == nil {
		return c, nil
	}
	type idxDef struct{ tbl, col, kind string }
	var defs []idxDef
	err := meta.Scan(func(_ store.RID, r table.Row) (bool, error) {
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
			c.Stats[string(tbl)] = ts
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
		t, ok := tables[d.tbl]
		if !ok {
			return nil, fmt.Errorf("%w: %q (from __meta index)", ErrNoTable, d.tbl)
		}
		kind, err := parseKind(d.kind)
		if err != nil {
			return nil, err
		}
		ix, err := buildIndex(context.Background(), t, d.col, kind)
		if err != nil {
			return nil, err
		}
		c.Indexes = append(c.Indexes, ix)
	}
	return c, nil
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
