package xlang

import (
	"context"
	"strings"
	"testing"

	"xst/internal/index"
	"xst/internal/plan"
	"xst/internal/stats"
	"xst/internal/table"
)

// indexedEnv binds the users table of queryEnv through a planner
// catalog with collected statistics and a hash index on uid, as a
// database session sees it.
func indexedEnv(t testing.TB, users int) *Env {
	t.Helper()
	env := queryEnv(t, users, 0)
	u, _ := env.Table("users")
	sc, err := stats.CollectAll(u)
	if err != nil {
		t.Fatal(err)
	}
	h, err := index.BuildHash(context.Background(), u, 0)
	if err != nil {
		t.Fatal(err)
	}
	cat := &plan.Catalog{
		Tables:  map[string]*table.Table{"users": u},
		Stats:   sc,
		Indexes: []*plan.TableIndex{{Table: u, Col: "uid", Kind: plan.HashIdx, Hash: h}},
	}
	env.BindPlanCatalog(func() *plan.Catalog { return cat })
	return env
}

// pointQuery compiles the warm indexed point query the allocation
// budget and BenchmarkQueryRun measure, and a runner that counts its
// result rows.
func pointQuery(t testing.TB) (*Query, func() int) {
	t.Helper()
	q, err := CompileQuery(indexedEnv(t, 2000), "from users where uid = 42 select uid, city")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(q.Node), "indexscan") {
		t.Fatalf("point query skipped the index:\n%s", plan.Explain(q.Node))
	}
	ctx := context.Background()
	return q, func() int {
		rows := 0
		if _, err := q.Run(ctx, func(b *table.Batch) error { rows += b.Len; return nil }); err != nil {
			t.Fatal(err)
		}
		return rows
	}
}

// TestIndexedPointQueryAllocs is the allocation budget of running a
// warm point query through the hash index: lowering and the probe; the
// one result row leaves as a batch, unboxed. An untraced statement must not pay for the per-operator
// estimates only a trace span shows (that cost three allocations).
func TestIndexedPointQueryAllocs(t *testing.T) {
	budget := 12.0
	if raceEnabled {
		budget++ // a batch's column headers take one more (Batch.setWidth)
	}
	_, run := pointQuery(t)
	if n := run(); n != 1 {
		t.Fatalf("point query returned %d rows, want 1", n)
	}
	if got := testing.AllocsPerRun(100, func() { run() }); got > budget {
		t.Fatalf("warm indexed point query: %.0f allocations per run, budget %.0f", got, budget)
	}
}

// BenchmarkQueryRun measures Query.Run of the warm indexed point query.
func BenchmarkQueryRun(b *testing.B) {
	_, run := pointQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if run() != 1 {
			b.Fatal("point query lost its row")
		}
	}
}

// TestFrontEndAllocs is the front end's per-statement allocation
// budget: IsQuery reads a statement's first two fields in place, and
// lex reserves its token list once from the source length, so that a
// point-lookup statement costs that one list.
func TestFrontEndAllocs(t *testing.T) {
	const point = "from users where id = 12345 select id, city, score"
	if got := testing.AllocsPerRun(100, func() { IsQuery(point) }); got != 0 {
		t.Errorf("IsQuery: %.0f allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { lex(point) }); got != 1 {
		t.Errorf("lex of a point lookup: %.0f allocations, want 1", got)
	}
}

// TestIsQueryMatchesFields holds IsQuery to its definition over
// strings.Fields: a statement is a query when its first field is
// `from` and a second field follows that is not `:=`.
func TestIsQueryMatchesFields(t *testing.T) {
	for _, src := range []string{
		"", "from", "from ", " from\tusers", "from := 1", "from:= 1", "from users",
		" from users ", "fromusers", "From users", "from\n:=", "x := from users",
		"from \xff", "\xfffrom users", "from\u0085users where id = 1",
	} {
		fs := strings.Fields(src)
		want := len(fs) >= 2 && fs[0] == "from" && fs[1] != ":="
		if got := IsQuery(src); got != want {
			t.Errorf("IsQuery(%q) = %v, want %v", src, got, want)
		}
	}
}
