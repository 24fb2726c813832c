package exec_test

import (
	"context"
	"sort"
	"testing"

	"xst/internal/algebra"
	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xtest"
)

func newPool() *store.BufferPool {
	return store.NewBufferPool(store.NewMemPager(), 64)
}

func makeUsers(t testing.TB, pool *store.BufferPool, n int) *table.Table {
	t.Helper()
	tbl, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"id", "city", "score"}})
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"ann-arbor", "boston", "chicago"}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(table.Row{core.Int(i), core.Str(cities[i%3]), core.Int(i % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func makeOrders(t testing.TB, pool *store.BufferPool, n, users int) *table.Table {
	t.Helper()
	tbl, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"uid", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(table.Row{core.Int(i % users), core.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// fingerprint renders rows order-independently for multiset comparison.
func fingerprint(rows []table.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = core.Key(r.Tuple())
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, got, want []table.Row) {
	t.Helper()
	g, w := fingerprint(got), fingerprint(want)
	if len(g) != len(w) {
		t.Fatalf("row count %d, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row multiset differs at %d:\ngot  %q\nwant %q", i, g[i], w[i])
		}
	}
}

func TestScanBatchesBounded(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 3000)
	op := exec.NewScan(tbl, nil)
	total, batches := 0, 0
	err := exec.Stream(context.Background(), op, func(rows []table.Row) error {
		if len(rows) == 0 || len(rows) > exec.MaxBatchRows {
			t.Fatalf("batch of %d rows (max %d)", len(rows), exec.MaxBatchRows)
		}
		total += len(rows)
		batches++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 3000 {
		t.Fatalf("streamed %d rows, want 3000", total)
	}
	st := op.Stats()
	if st.RowsOut != 3000 || st.Batches != batches || st.MaxBatch > exec.MaxBatchRows {
		t.Fatalf("stats = %+v (saw %d batches)", st, batches)
	}
}

// TestTreeMatchesAlgebra extends the engine↔algebra anchor to the
// streaming tree: a Restrict stage computes exactly the symbolic
// σ-Restriction, and a Project stage the σ-Domain, of the table's
// extended set.
func TestTreeMatchesAlgebra(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 45)
	whole, err := tbl.ToXST()
	if err != nil {
		t.Fatal(err)
	}

	restrict := exec.NewStage(&exec.Restrict{
		Filter: exec.RowPred(func(r table.Row) bool { return core.Equal(r[1], core.Str("boston")) }),
		Name:   "city=boston",
	}, exec.NewScan(tbl, nil))
	rows, err := exec.Collect(context.Background(), restrict)
	if err != nil {
		t.Fatal(err)
	}
	eb := core.NewBuilder(len(rows))
	for _, r := range rows {
		eb.AddClassical(r.Tuple())
	}
	pattern := core.S(core.Tuple(core.Str("boston")))
	sym := algebra.SigmaRestrict(whole, algebra.ScopeSet([2]int{2, 1}), pattern)
	if !core.Equal(eb.Set(), sym) {
		t.Fatalf("tree restriction ≠ σ-Restriction:\ntree=%v\nsym=%v", eb.Set(), sym)
	}

	project := exec.NewStage(&exec.Project{Cols: []int{0}}, exec.NewScan(tbl, nil))
	prows, err := exec.Collect(context.Background(), project)
	if err != nil {
		t.Fatal(err)
	}
	pb := core.NewBuilder(len(prows))
	for _, r := range prows {
		pb.AddClassical(r.Tuple())
	}
	symProj := algebra.SigmaDomain(whole, algebra.Positions(1))
	if !core.Equal(pb.Set(), symProj) {
		t.Fatalf("tree projection %v ≠ σ-Domain %v", pb.Set(), symProj)
	}
}

// swappedJoin is the tree the planner lowers when it builds a join's
// left input: the inputs exchanged, so the left one is the build side,
// under a projection that restores left ++ right column order.
func swappedJoin(left, right exec.Operator, leftCol, rightCol int) exec.Operator {
	nl, nr := left.OutSchema().Arity(), right.OutSchema().Arity()
	cols := make([]int, 0, nl+nr)
	for i := 0; i < nl; i++ {
		cols = append(cols, nr+i)
	}
	for i := 0; i < nr; i++ {
		cols = append(cols, i)
	}
	return exec.NewStage(&exec.Project{Cols: cols}, exec.NewHashJoin(right, left, rightCol, leftCol))
}

// TestHashJoinMatchesRelativeProduct ties the streaming join to Def
// 10.1 (§10 case 8 shape: match on key positions, concatenate the
// rest), for both build-side choices.
func TestHashJoinMatchesRelativeProduct(t *testing.T) {
	pool := newPool()
	l, _ := table.Create(pool, table.Schema{Name: "l", Cols: []string{"k", "a"}})
	r, _ := table.Create(pool, table.Schema{Name: "r", Cols: []string{"k", "b"}})
	for i := 0; i < 12; i++ {
		l.Insert(table.Row{core.Int(i % 4), core.Str("a" + string(rune('0'+i)))})
		r.Insert(table.Row{core.Int(i % 3), core.Str("b" + string(rune('0'+i)))})
	}
	lx, _ := l.ToXST()
	rx, _ := r.ToXST()
	spec := algebra.RelProdSpec{
		Sigma: algebra.NewSigma(
			algebra.ScopeSet([2]int{1, 1}, [2]int{2, 2}),
			algebra.ScopeSet([2]int{1, 1}),
		),
		Omega: algebra.NewSigma(
			algebra.ScopeSet([2]int{1, 1}),
			algebra.ScopeSet([2]int{1, 3}, [2]int{2, 4}),
		),
	}
	sym := spec.Apply(lx, rx)

	for _, buildLeft := range []bool{false, true} {
		var j exec.Operator = exec.NewHashJoin(exec.NewScan(l, nil), exec.NewScan(r, nil), 0, 0)
		if buildLeft {
			j = swappedJoin(exec.NewScan(l, nil), exec.NewScan(r, nil), 0, 0)
		}
		rows, err := exec.Collect(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		engine := core.NewBuilder(len(rows))
		for _, row := range rows {
			engine.AddClassical(row.Tuple())
		}
		if !core.Equal(engine.Set(), sym) {
			t.Fatalf("buildLeft=%v: streaming join ≠ relative product:\nengine=%v\nsym=%v",
				buildLeft, engine.Set(), sym)
		}
	}
}

// TestHashJoinStreamsProbe verifies the tentpole invariant: only the
// build side is held, and emitted batches stay bounded even when the
// join output is much larger than one batch.
func TestHashJoinStreamsProbe(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 50)
	orders := makeOrders(t, pool, 5000, 50)
	j := exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0)
	err := exec.Stream(context.Background(), j, func(rows []table.Row) error {
		if len(rows) > exec.MaxBatchRows {
			t.Fatalf("join emitted %d rows in one batch (max %d)", len(rows), exec.MaxBatchRows)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.HeldRows != 50 {
		t.Fatalf("join held %d rows, want the 50-row build side only", st.HeldRows)
	}
	if st.RowsOut != 5000 {
		t.Fatalf("join emitted %d rows, want 5000", st.RowsOut)
	}
	if st.MaxBatch > exec.MaxBatchRows {
		t.Fatalf("max batch %d exceeds %d", st.MaxBatch, exec.MaxBatchRows)
	}
}

func TestHashJoinBuildSidesAgree(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 40)
	orders := makeOrders(t, pool, 200, 40)
	a, err := exec.Collect(context.Background(),
		exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := exec.Collect(context.Background(),
		swappedJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, a, b)
	if len(a) == 0 {
		t.Fatal("expected joined rows")
	}
	for _, r := range a {
		if !core.Equal(r[0], r[2]) {
			t.Fatalf("column order not left++right: %v", r)
		}
	}
}

// TestGroupAggMatchesReference checks the operator against a fold of
// the table read record by record: count, sum(score) and max(id) per
// city.
func TestGroupAggMatchesReference(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 99)
	aggs := []exec.Agg{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 2}, {Kind: exec.AggMax, Col: 0}}
	byCity := map[string]table.Row{}
	var want []table.Row
	for _, r := range tableRows(t, tbl) {
		w := byCity[core.Key(r[1])]
		if w == nil {
			w = table.Row{r[1], core.Int(0), core.Int(0), r[0]}
			byCity[core.Key(r[1])] = w
			want = append(want, w)
		}
		w[1] = w[1].(core.Int) + 1
		w[2] = w[2].(core.Int) + r[2].(core.Int)
		if core.Compare(r[0], w[3]) > 0 {
			w[3] = r[0]
		}
	}
	g := exec.NewGroupAgg(exec.NewScan(tbl, nil), 1, 0, aggs...)
	got, err := exec.Collect(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want)
	if st := g.Stats(); st.HeldRows != 3 {
		t.Fatalf("aggregate held %d accumulators, want 3 groups", st.HeldRows)
	}
	sch := g.OutSchema()
	wantCols := []string{"city", "count", "sum(score)", "max(id)"}
	for i, c := range wantCols {
		if sch.Cols[i] != c {
			t.Fatalf("schema = %v, want %v", sch.Cols, wantCols)
		}
	}
}

func TestSortAndLimit(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 500)
	s := exec.NewSort(exec.NewScan(tbl, nil), 0, true)
	rows, err := exec.Collect(context.Background(), exec.NewLimit(s, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("limit kept %d rows, want 7", len(rows))
	}
	for i, r := range rows {
		if !core.Equal(r[0], core.Int(499-i)) {
			t.Fatalf("row %d = %v, want id %d", i, r, 499-i)
		}
	}
	if st := s.Stats(); st.HeldRows != 500 {
		t.Fatalf("sort held %d rows, want 500", st.HeldRows)
	}
}

func TestNextBeforeOpenErrors(t *testing.T) {
	op := exec.NewScan(makeUsers(t, newPool(), 5), nil)
	if _, err := op.Next(); err == nil {
		t.Fatal("Next before Open should error")
	}
}

func TestJoinCancelDuringBuild(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 4000)
	orders := makeOrders(t, pool, 10, 4000)
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		j := exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0)
		_, err := exec.Count(ctx, j)
		return err
	})
}

func TestJoinCancelDuringProbe(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 8)
	orders := makeOrders(t, pool, 8000, 8)
	xtest.AssertCancelAborts(t, 12, func(ctx context.Context) error {
		j := exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0)
		_, err := exec.Count(ctx, j)
		return err
	})
}

func TestGroupAggCancel(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 8000)
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		g := exec.NewGroupAgg(exec.NewScan(tbl, nil), 1, 0, exec.Agg{Kind: exec.AggCount})
		_, err := exec.Count(ctx, g)
		return err
	})
}

func TestSortCancel(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 8000)
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		s := exec.NewSort(exec.NewScan(tbl, nil), 0, false)
		_, err := exec.Count(ctx, s)
		return err
	})
}
