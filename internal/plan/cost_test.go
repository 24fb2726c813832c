package plan

import (
	"context"
	"math"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/stats"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xtest"
)

func TestEstimateRows(t *testing.T) {
	u, o := testTables(t, 100, 400)
	var cat *Catalog // no statistics: the constant model
	if got := cat.Estimate(&Scan{Table: u}); got != 100 {
		t.Fatalf("scan estimate = %v", got)
	}
	sel := &Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "city", Op: Eq, Val: core.Str("x")}}
	if got := cat.Estimate(sel); got != 10 {
		t.Fatalf("eq-select estimate = %v", got)
	}
	rng := &Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "score", Op: Lt, Val: core.Int(5)}}
	if got := cat.Estimate(rng); got != 30 {
		t.Fatalf("range estimate = %v", got)
	}
	and := &Select{Child: &Scan{Table: u}, Pred: And{
		Cmp{Col: "score", Op: Lt, Val: core.Int(5)},
		Cmp{Col: "city", Op: Eq, Val: core.Str("x")},
	}}
	if got := cat.Estimate(and); got != 3 {
		t.Fatalf("conjunction estimate = %v", got)
	}
	j := &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}
	if got := cat.Estimate(j); got != 400 {
		t.Fatalf("join estimate = %v", got)
	}
	if got := cat.Estimate(&Project{Child: j, Cols: []string{"oid"}}); got != 400 {
		t.Fatalf("project estimate = %v", got)
	}
}

func TestChooseJoinSidesSwapsLargeBuild(t *testing.T) {
	u, o := testTables(t, 50, 500)
	// Big orders on the build (right) side: should swap.
	n := &Join{Left: &Scan{Table: u}, Right: &Scan{Table: o}, LeftCol: "uid", RightCol: "ouid"}
	opt := ChooseJoinSides(n, nil)
	p, ok := opt.(*Project)
	if !ok {
		t.Fatalf("swap must wrap in projection, got %T", opt)
	}
	j, ok := p.Child.(*Join)
	if !ok {
		t.Fatal("projection child must be the swapped join")
	}
	if j.Left.Schema().Name != "orders" {
		t.Fatalf("probe side = %v, want orders", j.Left.Schema().Name)
	}
	// Already-good plans stay put.
	good := &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}
	if _, ok := ChooseJoinSides(good, nil).(*Join); !ok {
		t.Fatal("well-sided join must not be rewritten")
	}
}

// TestSwapKeepsCollidingColumnsApart: when both inputs carry the same
// column names, the swapped join qualifies the other copy, so restoring
// the order by name alone would read every shared column from the wrong
// side. The swap must return the unswapped join's rows under its names.
func TestSwapKeepsCollidingColumnsApart(t *testing.T) {
	u, _ := testTables(t, 60, 0)
	n := &Join{
		Left:    &Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "score", Op: Lt, Val: core.Int(40)}},
		Right:   &Scan{Table: u},
		LeftCol: "score", RightCol: "uid",
	}
	swapped := ChooseJoinSides(n, nil)
	if _, ok := swapped.(*Join); ok {
		t.Fatalf("the larger right input was not swapped: %v", swapped)
	}
	want, wsch, err := Execute(n)
	if err != nil {
		t.Fatal(err)
	}
	got, gsch, err := Execute(swapped)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(gsch.Cols, ",") != strings.Join(wsch.Cols, ",") {
		t.Fatalf("columns %v, want %v", gsch.Cols, wsch.Cols)
	}
	if len(want) == 0 {
		t.Fatal("corpus joins no rows")
	}
	sameRows(t, got, want)
}

func TestOptimizeCostPreservesResults(t *testing.T) {
	u, o := testTables(t, 40, 400)
	plans := []Node{
		// Badly sided join under a selection and projection.
		&Project{
			Cols: []string{"oid", "city"},
			Child: &Select{
				Child: &Join{Left: &Scan{Table: u}, Right: &Scan{Table: o}, LeftCol: "uid", RightCol: "ouid"},
				Pred:  Cmp{Col: "amount", Op: Lt, Val: core.Int(500)},
			},
		},
		// Nested joins.
		&Select{
			Child: &Join{
				Left:    &Join{Left: &Scan{Table: u}, Right: &Scan{Table: o}, LeftCol: "uid", RightCol: "ouid"},
				Right:   &Scan{Table: u},
				LeftCol: "uid", RightCol: "uid",
			},
			Pred: Cmp{Col: "score", Op: Ge, Val: core.Int(50)},
		},
	}
	for i, p := range plans {
		naive, nsch, err := Execute(p)
		if err != nil {
			t.Fatalf("plan %d naive: %v", i, err)
		}
		opt, osch, err := Execute(OptimizeCatalog(p, nil))
		if err != nil {
			t.Fatalf("plan %d optimized: %v", i, err)
		}
		// Same column names in the same order (swap is projection-fixed).
		if strings.Join(nsch.Cols, ",") != strings.Join(osch.Cols, ",") {
			t.Fatalf("plan %d: columns changed: %v vs %v", i, nsch.Cols, osch.Cols)
		}
		sameRows(t, naive, opt)
	}
}

func TestOptimizeCostFewerBuildRows(t *testing.T) {
	u, o := testTables(t, 30, 900)
	// Lowering builds the right input as given: the 900-row orders. The
	// cost-based optimizer swaps to build on the 30-row users.
	n := &Join{Left: &Scan{Table: u}, Right: &Scan{Table: o}, LeftCol: "uid", RightCol: "ouid"}
	naive, _, ns, err := ExecuteStats(n)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, os, err := ExecuteStats(OptimizeCatalog(n, nil))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, naive, opt)
	if ns.BuildRows != 900 || os.BuildRows != 30 {
		t.Fatalf("build rows: naive %d, optimized %d; want 900 and 30", ns.BuildRows, os.BuildRows)
	}
}

func TestEstimateRowsWithStats(t *testing.T) {
	u, o := testTables(t, 100, 400)
	sc, err := stats.CollectAll(u, o)
	if err != nil {
		t.Fatal(err)
	}
	cat := &Catalog{Stats: sc}
	// Equality on city (4 distinct) → ~25 of 100, far better than the
	// constant model's 10.
	sel := &Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "city", Op: Eq, Val: core.Str("city-a")}}
	got := cat.Estimate(sel)
	if got < 20 || got > 30 {
		t.Fatalf("stats eq estimate = %v, want ≈25", got)
	}
	// Join estimate |L|·|R|/max(d) = 400·100/100 = 400.
	j := &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}
	if got := cat.Estimate(j); got != 400 {
		t.Fatalf("stats join estimate = %v, want 400", got)
	}
	// Missing table falls back to exact count.
	empty := &Catalog{Stats: stats.Catalog{}}
	if got := empty.Estimate(&Scan{Table: u}); got != 100 {
		t.Fatalf("fallback = %v", got)
	}
}

// TestEstimateDistinctOnly: statistics that carry a row count and
// distinct counts but no histogram (what a federation coordinator merges
// from its sites) price an equality at 1/distinct and measure it, while
// a range falls back to the System-R constant and is not measured, so
// it sizes no build side.
func TestEstimateDistinctOnly(t *testing.T) {
	u, o := testTables(t, 100, 400)
	cat := &Catalog{Stats: stats.Catalog{"users": {Rows: 1000, Columns: []stats.ColumnStats{{Distinct: 1000}, {Distinct: 4}, {Distinct: 50}}}}}
	eq := &Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "city", Op: Eq, Val: core.Str("city-a")}}
	rng := &Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "score", Op: Lt, Val: core.Int(5)}}
	for _, tc := range []struct {
		n        Node
		est      float64
		measured bool
	}{{eq, 250, true}, {rng, 300, false}} {
		if got := cat.Estimate(tc.n); got != tc.est {
			t.Errorf("%v: estimate %v, want %v", tc.n, got, tc.est)
		}
		j := OptimizeCatalog(&Join{Left: &Scan{Table: o}, Right: tc.n, LeftCol: "ouid", RightCol: "uid"}, cat).(*Join)
		if sized := j.BuildRows != 0; sized != tc.measured {
			t.Errorf("%v: build sized for %d rows, measured %v", tc.n, j.BuildRows, tc.measured)
		}
	}
}

func TestOptimizeCostWithPreservesResults(t *testing.T) {
	u, o := testTables(t, 30, 300)
	sc, err := stats.CollectAll(u, o)
	if err != nil {
		t.Fatal(err)
	}
	q := &Project{
		Cols: []string{"oid", "city"},
		Child: &Select{
			Child: &Join{Left: &Scan{Table: u}, Right: &Scan{Table: o}, LeftCol: "uid", RightCol: "ouid"},
			Pred:  Cmp{Col: "amount", Op: Lt, Val: core.Int(300)},
		},
	}
	naive, _, err := Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Execute(OptimizeCatalog(q, &Catalog{Stats: sc}))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, naive, opt)
}

func TestStatsRangeSelectivityBeatsConstant(t *testing.T) {
	u, _ := testTables(t, 200, 0)
	sc, _ := stats.CollectAll(u)
	// score < 10 over scores 0..99: true selectivity ≈ 0.1; the constant
	// model says 0.3, stats should land near 0.1.
	sel := &Select{Child: &Scan{Table: u}, Pred: Cmp{Col: "score", Op: Lt, Val: core.Int(10)}}
	constant := (*Catalog)(nil).Estimate(sel)
	measured := (&Catalog{Stats: sc}).Estimate(sel)
	rows, _, _ := Execute(sel)
	actual := float64(len(rows))
	cErr := abs(constant - actual)
	mErr := abs(measured - actual)
	if mErr > cErr {
		t.Fatalf("stats estimate %v worse than constant %v (actual %v)", measured, constant, actual)
	}
}

// TestBuildSideFollowsPlanner: the join the planner sides is the join
// that runs. On the analytic join_filter shape, statistics put the
// filtered orders below the users table, so the planner builds orders;
// serial and partitioned lowering must both hold exactly those rows.
// Both tables have an id column, so the swap restores names with a
// Rename, which must not keep the plan from fanning out.
func TestBuildSideFollowsPlanner(t *testing.T) {
	const nUsers, nOrders, below = 4000, 40_000, 100
	pool := store.NewBufferPool(store.NewMemPager(), 1024)
	users, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"id", "city"}})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"id", "uid", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	r := xtest.NewRand(5)
	for i := 0; i < nUsers; i++ {
		users.Insert(table.Row{core.Int(i), core.Str("city-" + string(rune('a'+r.Intn(8))))})
	}
	filtered := 0
	for i := 0; i < nOrders; i++ {
		amount := r.Intn(1000)
		if amount < below {
			filtered++
		}
		orders.Insert(table.Row{core.Int(i), core.Int(r.Intn(nUsers)), core.Int(amount)})
	}
	sc, err := stats.CollectAll(users.Table(), orders.Table())
	if err != nil {
		t.Fatal(err)
	}
	q := &Project{Cols: []string{"amount", "city"}, Child: &Select{
		Child: &Join{Left: &Scan{Table: orders.Table()}, Right: &Scan{Table: users.Table()}, LeftCol: "uid", RightCol: "id"},
		Pred:  Cmp{Col: "amount", Op: Lt, Val: core.Int(below)},
	}}
	n := OptimizeCatalog(q, &Catalog{Stats: sc})
	if filtered == nUsers {
		t.Fatal("the two inputs are the same size; the build side is not observable")
	}
	ctx := context.Background()
	ref, err := Compile(Optimize(q))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Collect(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	for dop, build := range map[int]string{1: "hashjoin", 2: "hashbuild"} {
		op, err := CompileDOP(n, dop)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Collect(ctx, op)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want)
		builds := 0
		exec.Walk(op, func(o exec.Operator, _ int) {
			switch o.(type) {
			case *exec.HashJoin, *exec.HashBuild:
				if !strings.HasPrefix(o.String(), build+"[") {
					t.Fatalf("dop %d lowered %s, want a %s", dop, o, build)
				}
				builds++
			}
		})
		if held := TreeStats(op).BuildRows; builds != 1 || held != filtered {
			t.Fatalf("dop %d: %d builds holding %d rows, want one holding the %d filtered orders (users: %d)\n%s",
				dop, builds, held, filtered, nUsers, Explain(n))
		}
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// TestGroupSizedThroughJoins: a group key's measured distinct count
// resolves through the join side that owns the column and through the
// Rename a build-side swap leaves, so grouping the analytic
// join_group_city shape by city is estimated at the 8 cities, not the
// System-R tenth of the join's rows, and OptimizeCatalog sizes the
// aggregate with it — in both join orders. Without statistics nothing
// is sized.
func TestGroupSizedThroughJoins(t *testing.T) {
	const nUsers, nOrders, cities = 4000, 40_000, 8
	pool := store.NewBufferPool(store.NewMemPager(), 1024)
	users, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"id", "city"}})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"id", "uid", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	r := xtest.NewRand(5)
	for i := 0; i < nUsers; i++ {
		users.Insert(table.Row{core.Int(i), core.Str("city-" + string(rune('a'+i%cities)))})
	}
	for i := 0; i < nOrders; i++ {
		orders.Insert(table.Row{core.Int(i), core.Int(r.Intn(nUsers)), core.Int(r.Intn(1000))})
	}
	sc, err := stats.CollectAll(users.Table(), orders.Table())
	if err != nil {
		t.Fatal(err)
	}
	cat := &Catalog{Stats: sc}
	aggs := []AggSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: "amount"}}
	for _, j := range []*Join{
		{Left: &Scan{Table: orders.Table()}, Right: &Scan{Table: users.Table()}, LeftCol: "uid", RightCol: "id"},
		{Left: &Scan{Table: users.Table()}, Right: &Scan{Table: orders.Table()}, LeftCol: "id", RightCol: "uid"}, // swapped under a Rename
	} {
		q := &GroupBy{Child: j, Key: "city", Aggs: aggs}
		n := OptimizeCatalog(q, cat)
		g, ok := n.(*GroupBy)
		if !ok || g.Groups != cities {
			t.Fatalf("%v: optimized root %v, want a group sized for %d cities", j, n, cities)
		}
		if got := cat.Estimate(n); got != cities {
			t.Fatalf("%v: group estimate %v, want %d", j, got, cities)
		}
		out, err := ExplainAnalyzeCat(context.Background(), n, cat)
		if err != nil {
			t.Fatal(err)
		}
		if first := strings.SplitN(out, "\n", 2)[0]; !strings.Contains(first, "groupagg[city") ||
			!strings.Contains(first, "est=8 ") || !strings.Contains(first, "rows=8") {
			t.Fatalf("%v: EXPLAIN ANALYZE top line %q, want the group at est=8 rows=8\n%s", j, first, out)
		}
		if g := OptimizeCatalog(q, nil).(*GroupBy); g.Groups != 0 {
			t.Fatalf("%v: sized for %d groups without statistics", j, g.Groups)
		}
	}
}

// TestJoinBuildSized: OptimizeCatalog records on each join its build
// side's estimate where statistics give it — an analyzed table, under a
// priced filter too — and nothing where a join sits below the build
// side, a filter is left to DefaultSelectivity, the build table is not
// analyzed, or there is no catalog.
func TestJoinBuildSized(t *testing.T) {
	pool := store.NewBufferPool(store.NewMemPager(), 1024)
	mk := func(name string, cols []string, n int, row func(i int) table.Row) *table.Table {
		tb, err := table.Create(pool, table.Schema{Name: name, Cols: cols})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := tb.Insert(row(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tb.Table()
	}
	users := mk("users", []string{"id", "city"}, 4000, func(i int) table.Row {
		return table.Row{core.Int(i), core.Str("city-" + string(rune('a'+i%8)))}
	})
	orders := mk("orders", []string{"oid", "uid"}, 40_000, func(i int) table.Row { return table.Row{core.Int(i), core.Int(i % 4000)} })
	cities := mk("cities", []string{"name", "region"}, 8, func(i int) table.Row {
		return table.Row{core.Str("city-" + string(rune('a'+i))), core.Int(i % 2)}
	})
	sc, err := stats.CollectAll(users, orders, cities)
	if err != nil {
		t.Fatal(err)
	}
	cat := &Catalog{Stats: sc}
	join := func(build Node) Node {
		return &Join{Left: &Scan{Table: orders}, Right: build, LeftCol: "uid", RightCol: "id"}
	}
	// builds returns the joins of n, outermost first.
	var builds func(n Node) []*Join
	builds = func(n Node) (js []*Join) {
		if j, ok := n.(*Join); ok {
			js = append(js, j)
		}
		for _, k := range children(n) {
			js = append(js, builds(k)...)
		}
		return js
	}
	one := func(n Node, c *Catalog) *Join {
		t.Helper()
		js := builds(OptimizeCatalog(n, c))
		if len(js) != 1 {
			t.Fatalf("%v: %d joins, want 1", n, len(js))
		}
		return js[0]
	}
	if j := one(join(&Scan{Table: users}), cat); j.BuildRows != 4000 {
		t.Errorf("users build sized for %d rows, want 4000", j.BuildRows)
	}
	filtered := &Select{Child: &Scan{Table: users}, Pred: Cmp{Col: "city", Op: Eq, Val: core.Str("city-c")}}
	if j := one(join(filtered), cat); j.BuildRows != int(math.Ceil(cat.Estimate(j.Right))) || j.BuildRows < 400 || j.BuildRows > 600 {
		t.Errorf("filtered users build sized for %d rows, want the estimate %.1f, about 500", j.BuildRows, cat.Estimate(j.Right))
	}
	unpriced := &Select{Child: &Scan{Table: users}, Pred: Cmp{Col: "nosuch", Op: Eq, Val: core.Int(1)}}
	onlyOrders := &Catalog{Stats: stats.Catalog{"orders": sc["orders"]}}
	for what, c := range map[string]struct {
		n   Node
		cat *Catalog
	}{
		"no catalog":         {join(&Scan{Table: users}), nil},
		"unanalyzed build":   {join(&Scan{Table: users}), onlyOrders},
		"DefaultSelectivity": {join(unpriced), cat},
	} {
		if j := one(c.n, c.cat); j.BuildRows != 0 {
			t.Errorf("%s: build sized for %d rows, want 0", what, j.BuildRows)
		}
	}
	// orders ⋈ (users ⋈ cities): the outer join builds the smaller
	// users ⋈ cities, a join, so only the inner build is sized.
	three := join(&Join{Left: &Scan{Table: users}, Right: &Scan{Table: cities}, LeftCol: "city", RightCol: "name"})
	nested := 0
	for _, j := range builds(OptimizeCatalog(three, cat)) {
		if len(builds(j.Right)) > 0 {
			nested++
			if j.BuildRows != 0 {
				t.Errorf("%v: a join below the build side, sized for %d rows", j, j.BuildRows)
			}
		} else if want := int(math.Ceil(cat.Estimate(j.Right))); j.BuildRows != want {
			t.Errorf("%v: build sized for %d rows, want %d", j, j.BuildRows, want)
		}
	}
	if nested != 1 {
		t.Errorf("%d joins build a join, want the outer one", nested)
	}
}
