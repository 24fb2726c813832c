package catalog

import (
	"context"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/plan"
	"xst/internal/stats"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xlang"
)

// seedOrders creates an orders table ⟨id, region, amount⟩ and loads n
// rows in one commit, ids 0..n-1 and two regions split evenly.
func seedOrders(t *testing.T, db *Database, n int) {
	t.Helper()
	if _, err := db.CreateTable(table.Schema{Name: "orders", Cols: []string{"id", "region", "amount"}}); err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, n)
	for i := range rows {
		region := "east"
		if i%2 == 1 {
			region = "west"
		}
		rows[i] = table.Row{core.Int(i), core.Str(region), core.Int(i * 10)}
	}
	if err := db.Load(context.Background(), "orders", rows); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzePersistsStats(t *testing.T) {
	pager := store.NewMemPager()
	db, err := Create(pager, 64)
	if err != nil {
		t.Fatal(err)
	}
	seedOrders(t, db, 100)

	if _, ok := db.Stats("orders"); ok {
		t.Fatal("stats present before analyze")
	}
	n, err := db.Analyze(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("Analyze = %d, %v", n, err)
	}
	ts, ok := db.Stats("orders")
	if !ok || ts.Rows != 100 {
		t.Fatalf("Stats(orders) = %+v, %v", ts, ok)
	}
	if d := ts.Columns[1].Distinct; d != 2 {
		t.Fatalf("region distinct = %d, want 2", d)
	}
	if cat := db.PlanCatalog(); cat.Stats["orders"] != ts {
		t.Fatal("PlanCatalog does not carry the analyzed stats")
	}
	// The hidden __meta table must not leak into user-facing listings.
	for _, name := range db.Names() {
		if strings.HasPrefix(name, "__") {
			t.Fatalf("Names leaks %q", name)
		}
	}

	// Restart: statistics come back without re-analyzing.
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(pager, 64)
	if err != nil {
		t.Fatal(err)
	}
	ts2, ok := db2.Stats("orders")
	if !ok || ts2.Rows != 100 || ts2.Columns[1].Distinct != 2 {
		t.Fatalf("reopened stats = %+v, %v", ts2, ok)
	}
	// Histogram bounds survive the round trip too.
	if len(ts2.Columns[0].Bounds()) != len(ts.Columns[0].Bounds()) {
		t.Fatalf("bounds lost: %d vs %d", len(ts2.Columns[0].Bounds()), len(ts.Columns[0].Bounds()))
	}
}

func TestCreateIndexValidatesAndPersists(t *testing.T) {
	pager := store.NewMemPager()
	db, err := Create(pager, 64)
	if err != nil {
		t.Fatal(err)
	}
	seedOrders(t, db, 50)
	ctx := context.Background()

	if _, err := db.CreateIndex(ctx, "nope", "id", IndexHash); err == nil {
		t.Fatal("index on absent table must fail")
	}
	if _, err := db.CreateIndex(ctx, "orders", "nope", IndexHash); err == nil {
		t.Fatal("index on absent column must fail")
	}
	if _, err := db.CreateIndex(ctx, "orders", "id", "trie"); err == nil {
		t.Fatal("unknown index kind must fail")
	}
	if _, err := db.CreateIndex(ctx, "__meta", "kind", IndexHash); err == nil {
		t.Fatal("index on system table must fail")
	}
	if _, err := db.CreateIndex(ctx, "orders", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(ctx, "orders", "id", IndexHash); err == nil {
		t.Fatal("duplicate index must fail")
	}
	if _, err := db.CreateIndex(ctx, "orders", "id", IndexBTree); err != nil {
		t.Fatal(err)
	}
	ixs := db.Indexes("orders")
	if len(ixs) != 2 || ixs[0].Hash == nil || ixs[1].BTree == nil {
		t.Fatalf("Indexes = %+v", ixs)
	}

	// Restart: declarations come back and structures are rebuilt.
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(pager, 64)
	if err != nil {
		t.Fatal(err)
	}
	ixs2 := db2.Indexes("orders")
	if len(ixs2) != 2 {
		t.Fatalf("reopened Indexes = %+v", ixs2)
	}
	for _, ix := range ixs2 {
		if ix.Kind == plan.HashIdx && ix.Hash == nil {
			t.Fatal("hash structure not rebuilt at Open")
		}
		if ix.Kind == plan.BTreeIdx && ix.BTree == nil {
			t.Fatal("btree structure not rebuilt at Open")
		}
	}
	snap := db2.PlanCatalog()
	if len(snap.Indexes) != 2 {
		t.Fatalf("reopened PlanCatalog has %d indexes", len(snap.Indexes))
	}
}

// compileExplain compiles a query against a fresh session over db and
// returns its plan rendering plus the executed result cardinality.
func compileExplain(t *testing.T, db *Database, src string) (string, int) {
	t.Helper()
	env := xlang.NewEnv()
	if err := db.BindAll(env); err != nil {
		t.Fatal(err)
	}
	q, err := xlang.CompileQuery(env, src)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	if _, err := q.Run(context.Background(), func(b *table.Batch) error {
		rows += b.Len
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return plan.Explain(q.Node), rows
}

func TestQueriesUseIndexAfterAnalyze(t *testing.T) {
	db, err := Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	seedOrders(t, db, 200)
	ctx := context.Background()

	before, n := compileExplain(t, db, "from orders where id = 5")
	if strings.Contains(before, "indexscan") || n != 1 {
		t.Fatalf("before index: rows=%d plan:\n%s", n, before)
	}

	if _, err := db.CreateIndex(ctx, "orders", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(ctx, "orders", "region", IndexHash); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Analyze(ctx); err != nil {
		t.Fatal(err)
	}

	// Point lookup on a near-unique column: the index wins.
	after, n := compileExplain(t, db, "from orders where id = 5")
	if !strings.Contains(after, "indexscan") || n != 1 {
		t.Fatalf("after index: rows=%d plan:\n%s", n, after)
	}
	// 50%-selective predicate: reading half the table through the index
	// costs more than one sequential pass, so the planner keeps the scan.
	wide, n := compileExplain(t, db, `from orders where region = "east"`)
	if strings.Contains(wide, "indexscan") || n != 100 {
		t.Fatalf("wide predicate should full-scan: rows=%d plan:\n%s", n, wide)
	}
}

// TestAnalyzeKeepsIndexes: Analyze publishes fresh statistics and a
// fresh __meta and builds no index. Record ids never move, so each index
// it publishes is the structure its table already had, and a point
// query still takes it.
func TestAnalyzeKeepsIndexes(t *testing.T) {
	db, err := Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	seedOrders(t, db, 90)
	ctx := context.Background()
	if _, err := db.CreateIndex(ctx, "orders", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(ctx, "orders", "amount", IndexBTree); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	more := make([]table.Row, 30)
	for i := range more {
		more[i] = table.Row{core.Int(90 + i), core.Str("east"), core.Int((90 + i) * 10)}
	}
	if err := db.Load(ctx, "orders", more); err != nil {
		t.Fatal(err)
	}
	before, metaBefore := db.Indexes("orders"), db.current().meta

	if n, err := db.Analyze(ctx); err != nil || n != 1 {
		t.Fatalf("Analyze = %d, %v", n, err)
	}
	after := db.Indexes("orders")
	if len(after) != len(before) {
		t.Fatalf("%d indexes after Analyze, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i].Hash != before[i].Hash || after[i].BTree != before[i].BTree {
			t.Fatalf("Analyze rebuilt the %s index on %s", after[i].Kind, after[i].Col)
		}
	}
	if ts, ok := db.Stats("orders"); !ok || ts.Rows != 120 {
		t.Fatalf("published statistics %+v, want 120 rows", ts)
	}
	meta := db.current().meta
	if meta == metaBefore {
		t.Fatal("Analyze did not rewrite __meta")
	}
	metaRows := 0
	if err := meta.Scan(func(_ store.RID, r table.Row) (bool, error) {
		if core.Equal(r[0], core.Str("stats")) {
			ts, err := stats.DecodeTableStats(r[2])
			if err != nil || ts.Rows != 120 {
				t.Fatalf("__meta statistics %+v (%v), want 120 rows", ts, err)
			}
			metaRows++
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if metaRows != 1 {
		t.Fatalf("__meta holds %d statistics rows, want 1", metaRows)
	}
	got, n := compileExplain(t, db, "from orders where id = 100")
	if !strings.Contains(got, "indexscan") || n != 1 {
		t.Fatalf("lookup after Analyze: rows=%d plan:\n%s", n, got)
	}
}

// TestSnapshotNamesTables: every commit publishes one catalog that
// names the tables together with the indexes built over them, and an
// environment bound once keeps resolving `from` in the current one — so
// a later load costs it neither the index path nor the sight of a new
// table.
func TestSnapshotNamesTables(t *testing.T) {
	db, err := Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	seedOrders(t, db, 200)
	ctx := context.Background()
	if _, err := db.CreateIndex(ctx, "orders", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	env := xlang.NewEnv()
	if err := db.BindAll(env); err != nil {
		t.Fatal(err)
	}
	explain := func(src string) string {
		t.Helper()
		q, err := xlang.CompileQuery(env, src)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Explain(q.Node)
	}

	old := db.BeginRead()
	if err := db.Load(ctx, "orders", []table.Row{{core.Int(1000), core.Str("east"), core.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "later", Cols: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if got := explain("from orders where id = 1000"); !strings.Contains(got, "indexscan") {
		t.Fatalf("lookup after a load lost the index path:\n%s", got)
	}
	if got := explain("from later"); !strings.Contains(got, "scan(later)") {
		t.Fatalf("table created after BindAll:\n%s", got)
	}

	snap := db.PlanCatalog()
	cur, _ := db.Table("orders")
	if tab, ok := snap.Table("orders"); !ok || tab != cur {
		t.Fatal("snapshot does not name the published orders table")
	}
	for _, ix := range snap.Indexes {
		if tab, _ := snap.Table(ix.Table.Schema().Name); tab != ix.Table {
			t.Fatalf("index on %s.%s is over a table the snapshot does not name", ix.Table.Schema().Name, ix.Col)
		}
	}
	if _, ok := snap.Table(metaTable); ok {
		t.Fatal("snapshot exposes the reserved __meta table")
	}
	// The snapshot pinned before the commits still names its own world.
	if tab, _ := old.Snap.Table("orders"); tab == cur || tab.Count() != 200 {
		t.Fatalf("pinned snapshot's orders table moved with the commit (%d rows)", tab.Count())
	}
	if _, ok := old.Snap.Table("later"); ok {
		t.Fatal("pinned snapshot sees a table created after it")
	}
}
