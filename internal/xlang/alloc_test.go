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
		if _, err := q.Run(ctx, func(batch []table.Row) error { rows += len(batch); return nil }); err != nil {
			t.Fatal(err)
		}
		return rows
	}
}

// TestIndexedPointQueryAllocs is the allocation budget of running a
// warm point query through the hash index: lowering, the probe and the
// one result row. An untraced statement must not pay for the per-operator
// estimates only a trace span shows (that cost three allocations).
func TestIndexedPointQueryAllocs(t *testing.T) {
	const budget = 21
	_, run := pointQuery(t)
	if n := run(); n != 1 {
		t.Fatalf("point query returned %d rows, want 1", n)
	}
	if got := testing.AllocsPerRun(100, func() { run() }); got > budget {
		t.Fatalf("warm indexed point query: %.0f allocations per run, budget %d", got, budget)
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
