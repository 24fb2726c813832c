package xlang

import (
	"context"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/plan"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xtest"
)

func queryEnv(t testing.TB, users, orders int) *Env {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 128)
	u, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"uid", "city", "score"}})
	if err != nil {
		t.Fatal(err)
	}
	o, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"oid", "ouid", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"ann-arbor", "boston", "chicago"}
	for i := 0; i < users; i++ {
		u.Insert(table.Row{core.Int(i), core.Str(cities[i%3]), core.Int(i % 10)})
	}
	for i := 0; i < orders; i++ {
		o.Insert(table.Row{core.Int(i), core.Int(i % users), core.Int(i)})
	}
	env := NewEnv()
	env.BindTable("users", u)
	env.BindTable("orders", o)
	return env
}

func TestIsQuery(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"from users", true},
		{"  from users where score > 3", true},
		{"from := {1,2}", false}, // assignment to a variable named from
		{"from", false},
		{"{1,2} + {3}", false},
		{"users[{<1>}]", false},
	}
	for _, c := range cases {
		if got := IsQuery(c.src); got != c.want {
			t.Fatalf("IsQuery(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestQueryWhereSelect(t *testing.T) {
	env := queryEnv(t, 30, 0)
	q, err := CompileQuery(env, "from users where city = \"boston\" and score >= 4 select uid, score")
	if err != nil {
		t.Fatal(err)
	}
	if cols := q.Schema().Cols; strings.Join(cols, ",") != "uid,score" {
		t.Fatalf("schema = %v", cols)
	}
	var rows int
	_, err = q.Run(context.Background(), func(batch []table.Row) error {
		for _, r := range batch {
			if core.Compare(r[1], core.Int(4)) < 0 {
				t.Fatalf("predicate leak: %v", r)
			}
		}
		rows += len(batch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// city index 1, score i%10: boston users are i%3==1; of those score>=4.
	want := 0
	for i := 0; i < 30; i++ {
		if i%3 == 1 && i%10 >= 4 {
			want++
		}
	}
	if rows != want {
		t.Fatalf("got %d rows, want %d", rows, want)
	}
}

func TestQueryJoinGroupOrderLimit(t *testing.T) {
	env := queryEnv(t, 12, 120)
	q, err := CompileQuery(env,
		"from orders join users on ouid = uid group by city count sum(amount) order by sum(amount) desc limit 2")
	if err != nil {
		t.Fatal(err)
	}
	want := "city,count,sum(amount)"
	if cols := q.Schema().Cols; strings.Join(cols, ",") != want {
		t.Fatalf("schema = %v, want %s", cols, want)
	}
	var rows []table.Row
	if _, err := q.Run(context.Background(), func(batch []table.Row) error {
		for _, r := range batch {
			rows = append(rows, r.Clone())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("limit kept %d rows, want 2", len(rows))
	}
	if core.Compare(rows[0][2], rows[1][2]) < 0 {
		t.Fatalf("not sorted desc: %v", rows)
	}
}

func TestQueryEvalRendersSet(t *testing.T) {
	env := queryEnv(t, 9, 0)
	v, err := Eval(env, "from users where score < 3 select uid")
	if err != nil {
		t.Fatal(err)
	}
	s, ok := v.(*core.Set)
	if !ok {
		t.Fatalf("query rendered %T, want *core.Set", v)
	}
	if s.Len() != 3 { // scores 0,1,2 from i%10 over 0..8
		t.Fatalf("members = %d, want 3", s.Len())
	}
	// Queries compose with the symbolic language through the environment.
	if _, err := Eval(env, "q := from users select uid"); err == nil {
		t.Fatal("assignment of a query statement should not parse as a query")
	}
}

func TestQueryDistinct(t *testing.T) {
	env := queryEnv(t, 30, 0)
	q, err := CompileQuery(env, "from users select distinct city")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := q.Run(context.Background(), func(batch []table.Row) error {
		n += len(batch)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("distinct cities = %d, want 3", n)
	}
}

func TestQueryComparisonOps(t *testing.T) {
	env := queryEnv(t, 20, 0)
	cases := []struct {
		src  string
		want int
	}{
		{"from users where uid < 5", 5},
		{"from users where uid <= 5", 6},
		{"from users where uid > 17", 2},
		{"from users where uid >= 17", 3},
		{"from users where uid <> 0", 19},
		{"from users where uid = 0", 1},
	}
	for _, c := range cases {
		q, err := CompileQuery(env, c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		n := 0
		if _, err := q.Run(context.Background(), func(batch []table.Row) error {
			n += len(batch)
			return nil
		}); err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if n != c.want {
			t.Fatalf("%q returned %d rows, want %d", c.src, n, c.want)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	env := queryEnv(t, 5, 5)
	cases := []string{
		"from nosuch",
		"from users where nope = 1",
		"from users select nope",
		"from users join orders on uid = nope",
		"from users group by nope",
		"from users order by nope",
		"from users limit x",
		"from users where uid",
		"from users trailing",
	}
	for _, src := range cases {
		if _, err := CompileQuery(env, src); err == nil {
			t.Fatalf("%q compiled, want error", src)
		}
	}
}

func TestQueryStreamsBatches(t *testing.T) {
	env := queryEnv(t, 10, 5000)
	q, err := CompileQuery(env, "from orders join users on ouid = uid")
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	st, err := q.Run(context.Background(), func(batch []table.Row) error {
		if len(batch) > exec.MaxBatchRows {
			t.Fatalf("batch of %d rows exceeds %d", len(batch), exec.MaxBatchRows)
		}
		batches++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches < 2 {
		t.Fatalf("expected a multi-batch stream, got %d batches", batches)
	}
	if st.PeakIntermediateRows > exec.MaxBatchRows {
		t.Fatalf("peak intermediate rows %d exceeds one batch", st.PeakIntermediateRows)
	}
	if st.BuildRows != 10 {
		t.Fatalf("build rows = %d, want the 10-row users side", st.BuildRows)
	}
}

func TestQueryCancel(t *testing.T) {
	env := queryEnv(t, 50, 8000)
	xtest.AssertCancelAborts(t, 5, func(ctx context.Context) error {
		q, err := CompileQuery(env, "from orders join users on ouid = uid")
		if err != nil {
			return err
		}
		_, err = q.Run(ctx, func(batch []table.Row) error { return nil })
		return err
	})
}

func TestEnvCloneCopiesTables(t *testing.T) {
	env := queryEnv(t, 5, 5)
	clone := env.Clone()
	if _, ok := clone.Table("users"); !ok {
		t.Fatal("clone lost table binding")
	}
	pool := store.NewBufferPool(store.NewMemPager(), 8)
	extra, err := table.Create(pool, table.Schema{Name: "extra", Cols: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	clone.BindTable("extra", extra)
	if _, ok := env.Table("extra"); ok {
		t.Fatal("BindTable on clone leaked into original")
	}
	if len(env.TableNames()) != 2 {
		t.Fatalf("table names = %v", env.TableNames())
	}
}

// A table name resolves in the planner catalog before the environment's
// own bindings: the catalog's table is the one its indexes and
// statistics describe. Names the catalog lacks stay with the
// environment (session scratch tables).
func TestQueryResolvesTablesInCatalogFirst(t *testing.T) {
	env := queryEnv(t, 5, 5)
	stale, _ := env.Table("users")
	pool := store.NewBufferPool(store.NewMemPager(), 8)
	current, err := table.Create(pool, stale.Schema())
	if err != nil {
		t.Fatal(err)
	}
	env.BindPlanCatalog(func() *plan.Catalog {
		return &plan.Catalog{Tables: map[string]*table.Table{"users": current}}
	})
	scanned := func(src string) *table.Table {
		t.Helper()
		q, err := CompileQuery(env, src)
		if err != nil {
			t.Fatal(err)
		}
		return q.Node.(*plan.Scan).Table
	}
	if scanned("from users") != current {
		t.Fatal("the environment's binding shadowed the catalog's table")
	}
	if orders, _ := env.Table("orders"); scanned("from orders") != orders {
		t.Fatal("a table the catalog does not name must come from the environment")
	}
}
