package plan

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/stats"
	"xst/internal/store"
	"xst/internal/table"
)

// analyticTables are the two tables of the repository benchmark's
// analytic workload, scaled down: orders (id, uid, amount) and users
// (id, city), with ids and amounts that box (≥ 256) and strings.
func analyticTables(t testing.TB, orders, users int) (o, u *table.Table) {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 1024)
	o, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"id", "uid", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	u, err = table.Create(pool, table.Schema{Name: "users", Cols: []string{"uid2", "city"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < users; i++ {
		if _, err := u.Insert(table.Row{core.Int(int64(i)), core.Str(fmt.Sprintf("city-%02d", i%40))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < orders; i++ {
		row := table.Row{core.Int(int64(i)), core.Int(int64(i*7919) % int64(users)), core.Int(int64(i*31) % 1000)}
		if _, err := o.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return o, u
}

// analyticShapes are the four statement shapes of the analytic
// workload: group by, join + group, join + filter + project, and
// filter + project, the filters keeping about a tenth of the rows.
func analyticShapes(o, u *table.Table) map[string]Node {
	join := func() Node {
		return &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "uid", RightCol: "uid2"}
	}
	countSum := []AggSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: "amount"}}
	return map[string]Node{
		"group_uid":       &GroupBy{Child: &Scan{Table: o}, Key: "uid", Aggs: countSum},
		"join_group_city": &GroupBy{Child: join(), Key: "city", Aggs: countSum},
		"join_filter": &Project{Cols: []string{"amount", "city"},
			Child: &Select{Child: join(), Pred: Cmp{Col: "amount", Op: Lt, Val: core.Int(100)}}},
		"filter_ids": &Project{Cols: []string{"id"},
			Child: &Select{Child: &Scan{Table: o}, Pred: Cmp{Col: "amount", Op: Ge, Val: core.Int(900)}}},
	}
}

// runShape lowers n at dop and drains it as the server does, batch by
// batch with nothing boxed, returning the result rows.
func runShape(t testing.TB, n Node, dop int) int {
	op, err := CompileDOP(n, dop)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	if err := exec.Drain(context.Background(), op, func(b *table.Batch) error { rows += b.Len; return nil }); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestAnalyticShapesAllocs is the allocation budget of the analytic
// workload's four shapes over a 12 000-row table, serial and at two
// workers: O(pages), whatever the number of groups or result rows.
// Predicates, join and group keys and sums read unboxed columns, so the
// rows a filter drops and the keys a join only hashes cost nothing; the
// aggregate keeps its groups as columns and the result leaves as
// batches, so neither a group nor a result row is boxed; what is left
// is a constant per page and per statement.
func TestAnalyticShapesAllocs(t *testing.T) {
	o, u := analyticTables(t, 12_000, 1_200)
	opages, _ := o.PageIDs()
	upages, _ := u.PageIDs()
	pages := len(opages) + len(upages)
	for name, n := range analyticShapes(o, u) {
		for _, dop := range []int{1, 2} {
			out := runShape(t, n, dop)
			got := testing.AllocsPerRun(3, func() { runShape(t, n, dop) })
			// Per page: the pool's LRU element and the growth of the arrays
			// a build side or an aggregate's columns are copied into. Fixed:
			// the operators, workers, contexts and trace spans of one
			// statement, and the exchange's recycled batches.
			budget := 4*pages + 300
			t.Logf("%s dop=%d: %.0f allocations, %d pages, %d result rows, budget %d", name, dop, got, pages, out, budget)
			if got > float64(budget) {
				t.Errorf("%s dop=%d: %.0f allocations, budget %d (%d pages, %d result rows)", name, dop, got, budget, pages, out)
			}
		}
	}

	// Bytes of group_uid planned as the server plans it, with statistics:
	// each worker's tables are reserved once for the measured distinct
	// uids, so what a worker allocates per group — the keyed table's
	// 20 bytes, the key, count and sum words, the permutation and the
	// output chunk — is about 96 bytes, and the rest is a constant of the
	// statement. Growing the tables from empty instead costs about twice
	// that per group.
	sc, err := stats.CollectAll(o, u)
	if err != nil {
		t.Fatal(err)
	}
	sized := OptimizeCatalog(analyticShapes(o, u)["group_uid"], &Catalog{Stats: sc})
	for _, dop := range []int{1, 2} {
		groups := runShape(t, sized, dop)
		got := bytesPerRun(5, func() { runShape(t, sized, dop) })
		budget := 96*groups*dop + 12<<10
		t.Logf("group_uid sized dop=%d: %d bytes, %d groups, budget %d", dop, got, groups, budget)
		if got > uint64(budget) {
			t.Errorf("group_uid sized dop=%d: %d bytes, budget %d (%d groups)", dop, got, budget, groups)
		}
	}
}

// bytesPerRun is the mean of the bytes f allocates per call, read off
// MemStats.TotalAlloc, so what f's goroutines allocate counts too.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkAnalyticShapes is TestAnalyticShapesAllocs' twin: allocs/op
// of each shape at one and two workers.
//
//	go test -run='^$' -bench=AnalyticShapes -benchmem ./internal/plan/
func BenchmarkAnalyticShapes(b *testing.B) {
	o, u := analyticTables(b, 12_000, 1_200)
	for name, n := range analyticShapes(o, u) {
		for _, dop := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/dop=%d", name, dop), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runShape(b, n, dop)
				}
			})
		}
	}
}
