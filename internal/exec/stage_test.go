package exec_test

import (
	"context"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/store"
	"xst/internal/table"
)

// stages stacks ops on a scan of tbl, one Stage each.
func stages(tbl *table.Table, ops ...exec.Op) exec.Operator {
	return exec.NewStages(exec.NewScan(tbl, nil), ops...)
}

func TestRestrictBatch(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 90)
	s := exec.NewStage(&exec.Restrict{
		Pred: func(r table.Row) bool { return core.Equal(r[1], core.Str("boston")) },
		Name: "city=boston",
	}, exec.NewScan(tbl, nil))
	n, err := exec.Count(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("restricted to %d rows, want 30", n)
	}
	if st := s.Stats(); st.RowsIn != 90 || st.RowsOut != 30 || st.Batches == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProjectBatch(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 10)
	p := stages(tbl, &exec.Project{Cols: []int{2, 0}})
	rows, err := exec.Collect(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || len(rows[0]) != 2 {
		t.Fatalf("projection shape wrong: %v", rows[0])
	}
	if !core.Equal(rows[4][1], core.Int(4)) {
		t.Fatalf("row 4 = %v", rows[4])
	}
	if sch := p.OutSchema(); sch.Cols[0] != "score" || sch.Cols[1] != "id" {
		t.Fatalf("schema = %v", sch.Cols)
	}
}

func TestDistinct(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 60)
	rows, err := exec.Collect(context.Background(), stages(tbl, &exec.Project{Cols: []int{1}}, &exec.Distinct{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("distinct cities = %d, want 3", len(rows))
	}
}

// TestBatchTouchesPoolPerPage: a scan pins each page once per batch,
// not once per row.
func TestBatchTouchesPoolPerPage(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 300)
	pool.ResetStats()
	scan := exec.NewScan(tbl, nil)
	if _, err := exec.Count(context.Background(), scan); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if int(st.Hits+st.Misses) > scan.Stats().Batches+1 {
		t.Fatalf("set scan touched pool %d times for %d pages", st.Hits+st.Misses, scan.Stats().Batches)
	}
}

// XST's selling point over flat relational storage: fields can hold
// whole extended sets — hierarchy without a separate document model.
// These tests store nested sets in table rows and query them with
// set-level predicates, through the same operator tree.

func nestedTable(t testing.TB) *table.Table {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 32)
	tbl, err := table.Create(pool, table.Schema{Name: "docs", Cols: []string{"id", "tags", "address"}})
	if err != nil {
		t.Fatal(err)
	}
	tags := func(ss ...string) *core.Set {
		b := core.NewBuilder(len(ss))
		for _, s := range ss {
			b.AddClassical(core.Str(s))
		}
		return b.Set()
	}
	addr := func(city, zip string) *core.Set {
		return core.NewSet(
			core.M(core.Str(city), core.Str("city")),
			core.M(core.Str(zip), core.Str("zip")),
		)
	}
	rows := []table.Row{
		{core.Int(1), tags("db", "theory"), addr("ann-arbor", "48104")},
		{core.Int(2), tags("db", "systems"), addr("boston", "02134")},
		{core.Int(3), tags("theory"), addr("ann-arbor", "48105")},
		{core.Int(4), tags(), addr("chicago", "60601")},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestNestedSetsRoundTripThroughStorage(t *testing.T) {
	got, err := exec.Collect(context.Background(), exec.NewScan(nestedTable(t), nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("rows = %d", len(got))
	}
	tags, ok := got[0][1].(*core.Set)
	if !ok || !tags.HasClassical(core.Str("db")) {
		t.Fatalf("nested set lost: %v", got[0][1])
	}
	addr, ok := got[0][2].(*core.Set)
	if !ok || len(addr.ElemsUnder(core.Str("city"))) != 1 {
		t.Fatalf("scoped nested set lost: %v", got[0][2])
	}
}

func TestQueryBySetMembership(t *testing.T) {
	// σ(“db” ∈ tags): a membership predicate over a nested field.
	rows, err := exec.Collect(context.Background(), stages(nestedTable(t), &exec.Restrict{
		Pred: func(r table.Row) bool {
			s, ok := r[1].(*core.Set)
			return ok && s.HasClassical(core.Str("db"))
		},
		Name: "db∈tags",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("db-tagged rows = %d, want 2", len(rows))
	}
}

func TestQueryBySubset(t *testing.T) {
	want := core.S(core.Str("db"), core.Str("theory"))
	rows, err := exec.Collect(context.Background(), stages(nestedTable(t), &exec.Restrict{
		Pred: func(r table.Row) bool {
			s, ok := r[1].(*core.Set)
			return ok && core.Subset(want, s)
		},
		Name: "{db,theory}⊆tags",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !core.Equal(rows[0][0], core.Int(1)) {
		t.Fatalf("subset query = %v", rows)
	}
}

func TestQueryByScopedField(t *testing.T) {
	// σ(address.city = ann-arbor): read a scoped member inside the
	// nested set — the XST reading of a field access.
	n, err := exec.Count(context.Background(), stages(nestedTable(t), &exec.Restrict{
		Pred: func(r table.Row) bool {
			s, ok := r[2].(*core.Set)
			return ok && s.Has(core.Str("ann-arbor"), core.Str("city"))
		},
		Name: "city=ann-arbor",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ann-arbor rows = %d, want 2", n)
	}
}

func TestGroupByNestedField(t *testing.T) {
	// Group by the whole nested tags value: equal sets group together.
	rows, err := groupAgg(nestedTable(t), 1, exec.Agg{Kind: exec.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	// Four distinct tag sets in the fixture.
	if len(rows) != 4 {
		t.Fatalf("tag groups = %d, want 4", len(rows))
	}
}

// TestJoinWithSidedOps restricts both join inputs through stages; no
// row either restriction drops may reach the join output.
func TestJoinWithSidedOps(t *testing.T) {
	pool := newPool()
	users := makeUsers(t, pool, 30)
	orders := makeOrders(t, pool, 90, 30)
	j := exec.NewHashJoin(
		stages(orders, &exec.Restrict{Pred: func(r table.Row) bool { return core.Compare(r[1], core.Int(45)) < 0 }, Name: "amount<45"}),
		stages(users, &exec.Restrict{Pred: func(r table.Row) bool { return core.Equal(r[1], core.Str("boston")) }, Name: "city=boston"}),
		0, 0)
	rows, err := exec.Collect(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if core.Compare(r[1], core.Int(45)) >= 0 || !core.Equal(r[3], core.Str("boston")) {
			t.Fatalf("sided op leak: %v", r)
		}
	}
	if len(rows) == 0 {
		t.Fatal("expected some joined rows")
	}
}
