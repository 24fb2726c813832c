package plan

import (
	"context"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/index"
	"xst/internal/stats"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xtest"
)

// testTables3 extends testTables with an items table joined to orders,
// all column names globally unique.
func testTables3(t testing.TB, users, orders, items int) (*table.Table, *table.Table, *table.Table) {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 256)
	u, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"uid", "city", "score"}})
	if err != nil {
		t.Fatal(err)
	}
	o, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"oid", "ouid", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	it, err := table.Create(pool, table.Schema{Name: "items", Cols: []string{"iid", "ioid", "price"}})
	if err != nil {
		t.Fatal(err)
	}
	r := xtest.NewRand(23)
	for i := 0; i < users; i++ {
		u.Insert(table.Row{core.Int(i), core.Str("city-" + string(rune('a'+r.Intn(4)))), core.Int(r.Intn(100))})
	}
	for i := 0; i < orders; i++ {
		o.Insert(table.Row{core.Int(i), core.Int(r.Intn(users)), core.Int(r.Intn(1000))})
	}
	for i := 0; i < items; i++ {
		it.Insert(table.Row{core.Int(i), core.Int(r.Intn(orders)), core.Int(r.Intn(50))})
	}
	return u, o, it
}

// fullCatalog collects statistics and builds hash + btree indexes on
// the key and numeric columns of all three tables.
func fullCatalog(t testing.TB, u, o, it *table.Table) *Catalog {
	t.Helper()
	sc, err := stats.CollectAll(u, o, it)
	if err != nil {
		t.Fatal(err)
	}
	cat := &Catalog{Stats: sc}
	ctx := context.Background()
	add := func(tab *table.Table, col string, kind IndexKind) {
		ci := tab.Schema().Col(col)
		ti := &TableIndex{Table: tab, Col: col, Kind: kind}
		if kind == HashIdx {
			if ti.Hash, err = index.BuildHash(ctx, tab, ci); err != nil {
				t.Fatal(err)
			}
		} else {
			if ti.BTree, err = index.BuildBTree(ctx, tab, ci); err != nil {
				t.Fatal(err)
			}
		}
		cat.Indexes = append(cat.Indexes, ti)
	}
	add(u, "uid", HashIdx)
	add(u, "score", BTreeIdx)
	add(u, "city", HashIdx)
	add(o, "oid", HashIdx)
	add(o, "ouid", HashIdx)
	add(o, "amount", BTreeIdx)
	add(it, "iid", HashIdx)
	add(it, "price", BTreeIdx)
	return cat
}

// TestIndexDifferentialEquivalence runs a 24-query suite twice — once
// through the statistics/index-aware optimizer, once through the
// heuristic one — and demands identical rows and schemas. This is the
// planner's soundness net: whatever access path or join order the cost
// model picks, the answer may not change.
func TestIndexDifferentialEquivalence(t *testing.T) {
	queries, cat := differentialQueries(t)
	for i, q := range queries {
		naive, nsch, err := Execute(Optimize(q))
		if err != nil {
			t.Fatalf("query %d heuristic: %v", i+1, err)
		}
		costed, csch, err := Execute(OptimizeCatalog(q, cat))
		if err != nil {
			t.Fatalf("query %d cost-based: %v", i+1, err)
		}
		if strings.Join(nsch.Cols, ",") != strings.Join(csch.Cols, ",") {
			t.Fatalf("query %d: schema changed %v vs %v", i+1, nsch.Cols, csch.Cols)
		}
		sameRows(t, naive, costed)
	}
}

// differentialQueries is the 24-query suite with the catalog (indexes
// and statistics on every table) the cost-based optimizer plans it on.
func differentialQueries(t *testing.T) ([]Node, *Catalog) {
	t.Helper()
	u, o, it := testTables3(t, 60, 400, 900)
	cat := fullCatalog(t, u, o, it)

	su := func() Node { return &Scan{Table: u} }
	so := func() Node { return &Scan{Table: o} }
	si := func() Node { return &Scan{Table: it} }
	uo := func() Node {
		return &Join{Left: su(), Right: so(), LeftCol: "uid", RightCol: "ouid"}
	}
	uoi := func() Node {
		return &Join{Left: uo(), Right: si(), LeftCol: "oid", RightCol: "ioid"}
	}
	queries := []Node{
		// 1-6: single-table point and range restrictions.
		&Select{Child: su(), Pred: Cmp{Col: "uid", Op: Eq, Val: core.Int(7)}},
		&Select{Child: su(), Pred: Cmp{Col: "score", Op: Lt, Val: core.Int(10)}},
		&Select{Child: su(), Pred: Cmp{Col: "score", Op: Ge, Val: core.Int(95)}},
		&Select{Child: so(), Pred: Cmp{Col: "oid", Op: Eq, Val: core.Int(399)}},
		&Select{Child: so(), Pred: Cmp{Col: "amount", Op: Gt, Val: core.Int(990)}},
		&Select{Child: si(), Pred: Cmp{Col: "price", Op: Le, Val: core.Int(0)}},
		// 7-10: conjunctions (residual predicates over an index probe).
		&Select{Child: su(), Pred: And{Cmp{Col: "uid", Op: Eq, Val: core.Int(3)}, Cmp{Col: "score", Op: Gt, Val: core.Int(1)}}},
		&Select{Child: so(), Pred: And{Cmp{Col: "amount", Op: Ge, Val: core.Int(100)}, Cmp{Col: "amount", Op: Lt, Val: core.Int(120)}}},
		&Select{Child: su(), Pred: And{Cmp{Col: "city", Op: Eq, Val: core.Str("city-a")}, Cmp{Col: "score", Op: Lt, Val: core.Int(5)}}},
		&Select{Child: si(), Pred: And{Cmp{Col: "iid", Op: Eq, Val: core.Int(1)}, Cmp{Col: "price", Op: Ne, Val: core.Int(3)}}},
		// 11-13: misses and edge values.
		&Select{Child: su(), Pred: Cmp{Col: "uid", Op: Eq, Val: core.Int(-1)}},
		&Select{Child: so(), Pred: Cmp{Col: "amount", Op: Lt, Val: core.Int(-5)}},
		&Select{Child: su(), Pred: Cmp{Col: "city", Op: Eq, Val: core.Str("nowhere")}},
		// 14-16: projections and unary shapes above restrictions.
		&Project{Child: &Select{Child: su(), Pred: Cmp{Col: "uid", Op: Eq, Val: core.Int(9)}}, Cols: []string{"city"}},
		&Distinct{Child: &Project{Child: &Select{Child: so(), Pred: Cmp{Col: "amount", Op: Lt, Val: core.Int(50)}}, Cols: []string{"ouid"}}},
		&Limit{N: 5, Child: &Sort{Col: "score", Child: &Select{Child: su(), Pred: Cmp{Col: "score", Op: Ge, Val: core.Int(90)}}}},
		// 17-20: joins with restrictions pushed through index probes.
		&Select{Child: uo(), Pred: Cmp{Col: "uid", Op: Eq, Val: core.Int(11)}},
		&Select{Child: uo(), Pred: And{Cmp{Col: "score", Op: Lt, Val: core.Int(8)}, Cmp{Col: "amount", Op: Gt, Val: core.Int(900)}}},
		&Project{Child: &Select{Child: uo(), Pred: Cmp{Col: "ouid", Op: Eq, Val: core.Int(5)}}, Cols: []string{"city", "amount"}},
		&GroupBy{Child: &Select{Child: uo(), Pred: Cmp{Col: "score", Op: Ge, Val: core.Int(50)}}, Key: "city", Aggs: []AggSpec{{Kind: exec.AggCount}}},
		// 21-24: three-way joins exercising the reorderer.
		uoi(),
		&Select{Child: uoi(), Pred: Cmp{Col: "price", Op: Lt, Val: core.Int(3)}},
		&Select{Child: uoi(), Pred: And{Cmp{Col: "uid", Op: Eq, Val: core.Int(20)}, Cmp{Col: "price", Op: Ge, Val: core.Int(10)}}},
		&Project{Child: &Select{Child: uoi(), Pred: Cmp{Col: "score", Op: Gt, Val: core.Int(80)}}, Cols: []string{"uid", "iid"}},
	}
	if len(queries) != 24 {
		t.Fatalf("suite holds %d queries, want 24", len(queries))
	}
	return queries, cat
}

// TestAccessPathChoice pins the crossover: a point lookup on a
// near-unique column runs through the index, a half-the-table predicate
// stays on the sequential scan.
func TestAccessPathChoice(t *testing.T) {
	u, o, it := testTables3(t, 200, 100, 10)
	cat := fullCatalog(t, u, o, it)

	point := OptimizeCatalog(&Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "uid", Op: Eq, Val: core.Int(3)}}, cat)
	if got := Explain(point); !strings.Contains(got, "indexscan") {
		t.Fatalf("point lookup skipped the index:\n%s", got)
	}
	// city has 4 distinct values → 25%: reading a quarter of the table
	// through the index costs more than one sequential pass.
	wide := OptimizeCatalog(&Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "city", Op: Eq, Val: core.Str("city-a")}}, cat)
	if got := Explain(wide); strings.Contains(got, "indexscan") {
		t.Fatalf("25%% predicate chose the index:\n%s", got)
	}
	// A narrow range uses the btree; the residual stays as a filter.
	narrow := OptimizeCatalog(&Select{Child: &Scan{Table: u}, Pred: And{
		Cmp{Col: "score", Op: Ge, Val: core.Int(99)},
		Cmp{Col: "city", Op: Eq, Val: core.Str("city-b")},
	}}, cat)
	if got := Explain(narrow); !strings.Contains(got, "indexscan") || !strings.Contains(got, "select[") {
		t.Fatalf("narrow range should probe btree with residual filter:\n%s", got)
	}
	// Without statistics or indexes nothing changes shape.
	bare := OptimizeCatalog(&Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "uid", Op: Eq, Val: core.Int(3)}}, nil)
	if got := Explain(bare); strings.Contains(got, "indexscan") {
		t.Fatalf("nil catalog produced an index path:\n%s", got)
	}
}

// TestNarrowRangeTakesBTreeEverywhere: the two bounds of `id >= a and
// id < b` are one interval of one column, not two independent events.
// Multiplying their selectivities put a 20-row range whose ends fall in
// the median histogram bucket at a quarter of the table, which lost to
// the scan; on the benchmark's 200 000-row table that was every
// thirteenth range. A half-table range must still keep the scan (E16).
func TestNarrowRangeTakesBTreeEverywhere(t *testing.T) {
	const rows, width = 200_000, 20
	pool := store.NewBufferPool(store.NewMemPager(), 4096)
	tab, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"id", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tab.Insert(table.Row{core.Int(i), core.Int(i % 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := stats.CollectAll(tab)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := index.BuildBTree(context.Background(), tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	cat := &Catalog{Stats: sc, Indexes: []*TableIndex{{Table: tab, Col: "id", Kind: BTreeIdx, BTree: bt}}}
	plan := func(lo, hi int, loOp, hiOp CmpOp) string {
		return Explain(OptimizeCatalog(&Select{Child: &Scan{Table: tab}, Pred: And{
			Cmp{Col: "id", Op: loOp, Val: core.Int(lo)},
			Cmp{Col: "id", Op: hiOp, Val: core.Int(hi)},
		}}, cat))
	}
	for lo := 0; lo+width <= rows; lo += 97 {
		if got := plan(lo, lo+width, Ge, Lt); !strings.Contains(got, "indexscan") {
			t.Fatalf("20-row range at %d skipped the btree:\n%s", lo, got)
		}
		if got := plan(lo-1, lo+width-1, Gt, Le); !strings.Contains(got, "indexscan") {
			t.Fatalf("20-row range (%d, %d] skipped the btree:\n%s", lo-1, lo+width-1, got)
		}
	}
	for _, lo := range []int{0, rows / 4, rows / 2} {
		if got := plan(lo, lo+rows/2, Ge, Lt); strings.Contains(got, "indexscan") {
			t.Fatalf("50%% range at %d chose the btree:\n%s", lo, got)
		}
	}
}

// TestJoinOrderBySelectivity: with three joinable tables the reorderer
// must start from the cheapest pair and keep the projection-restored
// column order; the rewrite must not change results (also covered per
// query in the differential suite).
func TestJoinOrderBySelectivity(t *testing.T) {
	u, o, it := testTables3(t, 30, 300, 1500)
	cat := fullCatalog(t, u, o, it)
	q := &Join{
		Left:    &Join{Left: &Scan{Table: it}, Right: &Scan{Table: o}, LeftCol: "ioid", RightCol: "oid"},
		Right:   &Scan{Table: u},
		LeftCol: "ouid", RightCol: "uid",
	}
	got := OptimizeCatalog(q, cat)
	naive, nsch, err := Execute(Optimize(q))
	if err != nil {
		t.Fatal(err)
	}
	costed, csch, err := Execute(got)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(nsch.Cols, ",") != strings.Join(csch.Cols, ",") {
		t.Fatalf("column order changed: %v vs %v", nsch.Cols, csch.Cols)
	}
	sameRows(t, naive, costed)
	// The greedy seed is the cheapest pair — orders⋈users (≤300 rows),
	// not the parse order's items⋈orders (1500) — so the rebuilt tree
	// attaches items last: the outermost join carries the ioid=oid edge
	// over the inner ouid=uid composite.
	exp := Explain(got)
	outer := strings.Index(exp, "join[ioid=oid]")
	inner := strings.Index(exp, "join[ouid=uid]")
	if outer < 0 || inner < 0 || outer > inner {
		t.Fatalf("reorder should seed orders/users and attach items last:\n%s", exp)
	}
}

// TestExplainAnalyzeCatShowsEstimates: the rendered tree names the
// chosen access path and carries est= next to actual rows.
func TestExplainAnalyzeCatShowsEstimates(t *testing.T) {
	u, o, it := testTables3(t, 120, 60, 10)
	cat := fullCatalog(t, u, o, it)
	n := OptimizeCatalog(&Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "uid", Op: Eq, Val: core.Int(17)}}, cat)
	out, err := ExplainAnalyzeCat(context.Background(), n, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "indexscan") {
		t.Fatalf("analyze output misses access path:\n%s", out)
	}
	if !strings.Contains(out, "est=") || !strings.Contains(out, "rows=1") {
		t.Fatalf("analyze output misses estimates next to actuals:\n%s", out)
	}
}
