package plan

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/index"
	"xst/internal/stats"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/workload"
	"xst/internal/xtest"
)

// The planner's experiments: E12 (algebraic rewrites), E13 (morsel
// parallelism) and E16 (index vs scan). Their quick-scale checks are
// tests; each benchmark runs at full scale and holds its timing claim.

// BenchmarkPlanOptimization is E12 at full scale (§12): a join under a
// two-conjunct selection over 5 000 users and 25 000 orders, run naively
// (base) and after Optimize (variant), at three selectivities. The
// claims: the rewritten plan never joins more rows, and at 0.5 % it is
// not slower. TestOptimizedScansFewerRows checks the rows at quick scale.
func BenchmarkPlanOptimization(b *testing.B) {
	u, o := testTables(b, 5_000, 25_000)
	for _, sel := range []struct {
		name  string
		limit int64
	}{{"50%", 500}, {"5%", 50}, {"0.5%", 5}} {
		naive := &Project{
			Cols: []string{"oid", "city"},
			Child: &Select{
				Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
				Pred: And{
					Cmp{Col: "amount", Op: Lt, Val: core.Int(sel.limit)},
					Cmp{Col: "score", Op: Ge, Val: core.Int(10)},
				},
			},
		}
		optimized := Optimize(naive)
		b.Run("sel="+sel.name, func(b *testing.B) {
			var ns, ost ExecStats
			run := func(n Node, st *ExecStats) func() {
				return func() {
					var err error
					if _, _, *st, err = ExecuteStats(n); err != nil {
						b.Fatal(err)
					}
				}
			}
			x := xtest.Versus(b, run(naive, &ns), run(optimized, &ost))
			b.ReportMetric(float64(ns.RowsJoined), "naive-joined")
			b.ReportMetric(float64(ost.RowsJoined), "opt-joined")
			if ost.RowsJoined > ns.RowsJoined {
				b.Fatalf("optimized plan joined %d rows, naive %d", ost.RowsJoined, ns.RowsJoined)
			}
			if sel.limit == 5 && x < 1 {
				b.Fatalf("optimized plan %.2fx of naive: slower", x)
			}
		})
	}
}

// BenchmarkParallelSelect is E13 at full scale: a one-in-fifty city
// selection over 200 000 users, the serial tree (base) against
// CompileDOP at 1–8 workers (variant). The claims: the fan-out never
// costs more than 2× the serial tree, and on a host with ≥ 4 CPUs four
// workers are faster. TestCompileDOPMatchesSerial checks the rows.
func BenchmarkParallelSelect(b *testing.B) {
	ds, err := workload.Build(workload.Spec{Seed: 42, Users: 200_000, Orders: 1, Cities: 50}, 4096)
	if err != nil {
		b.Fatal(err)
	}
	query := &Select{
		Child: &Scan{Table: ds.Users},
		Pred:  Cmp{Col: "city", Op: Eq, Val: workload.SelectivityValue(50)},
	}
	count := func(dop int, n *int) func() {
		return func() {
			op, err := CompileDOP(query, dop)
			if err == nil {
				*n, err = exec.Count(context.Background(), op)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var serial, par int
			x := xtest.Versus(b, count(1, &serial), count(workers, &par))
			if par != serial {
				b.Fatalf("%d workers counted %d rows, serial %d", workers, par, serial)
			}
			if x < 0.5 {
				b.Fatalf("%d workers %.2fx of serial: more than 2× slower", workers, x)
			}
			if runtime.NumCPU() >= 4 && workers == 4 && x < 1 {
				b.Fatalf("4 workers on %d CPUs %.2fx of serial: no speedup", runtime.NumCPU(), x)
			}
		})
	}
}

// BenchmarkParallelScaling measures the morsel-driven scaling curve on
// the full parallel spine — scan → restrict → join probe → grouped
// aggregate — at explicit worker counts. workers=1 is the serial tree
// (CompileDOP degrades to Compile); the acceptance target is ≥2×
// speedup at 4 workers on a ≥4-core host (see EXPERIMENTS.md for the
// recorded curve).
func BenchmarkParallelScaling(b *testing.B) {
	pool := store.NewBufferPool(store.NewMemPager(), 512)
	users, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"uid", "city", "score"}})
	if err != nil {
		b.Fatal(err)
	}
	orders, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"oid", "ouid", "amount"}})
	if err != nil {
		b.Fatal(err)
	}
	r := xtest.NewRand(7)
	const nUsers, nOrders = 500, 60000
	for i := 0; i < nUsers; i++ {
		users.Insert(table.Row{core.Int(i), core.Str(fmt.Sprintf("city-%02d", r.Intn(16))), core.Int(r.Intn(100))})
	}
	for i := 0; i < nOrders; i++ {
		orders.Insert(table.Row{core.Int(i), core.Int(r.Intn(nUsers)), core.Int(r.Intn(1000))})
	}
	query := func() Node {
		return &GroupBy{
			Child: &Select{
				Child: &Join{
					Left: &Scan{Table: orders}, Right: &Scan{Table: users},
					LeftCol: "ouid", RightCol: "uid",
				},
				Pred: Cmp{Col: "amount", Op: Lt, Val: core.Int(800)},
			},
			Key:  "city",
			Aggs: []AggSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: "amount"}},
		}
	}
	baseline := -1
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op, err := CompileDOP(query(), workers)
				if err != nil {
					b.Fatal(err)
				}
				n, err := exec.Count(context.Background(), op)
				if err != nil {
					b.Fatal(err)
				}
				if baseline < 0 {
					baseline = n
				}
				if n != baseline {
					b.Fatalf("workers=%d returned %d groups, serial returned %d", workers, n, baseline)
				}
			}
		})
	}
}

// indexVsScan is E16's fixture: an events table of n rows with a hash
// index on the unique eid, a hash index on grp (two values, half the
// table each) and a btree on val (uniform in [0, 1000)), analyzed.
// Its cases name the access path the cost-based planner must choose.
func indexVsScan(tb testing.TB, n int) (*table.Table, *Catalog) {
	tb.Helper()
	ev, err := table.Create(store.NewBufferPool(store.NewMemPager(), 1024),
		table.Schema{Name: "events", Cols: []string{"eid", "grp", "val"}})
	if err != nil {
		tb.Fatal(err)
	}
	r := xtest.NewRand(42)
	for i := 0; i < n; i++ {
		grp := "hot"
		if i%2 == 1 {
			grp = "cold"
		}
		if _, err := ev.Insert(table.Row{core.Int(i), core.Str(grp), core.Int(r.Intn(1000))}); err != nil {
			tb.Fatal(err)
		}
	}
	sc, err := stats.CollectAll(ev)
	if err != nil {
		tb.Fatal(err)
	}
	cat := &Catalog{Stats: sc}
	for _, ix := range []struct {
		col  string
		kind IndexKind
	}{{"eid", HashIdx}, {"grp", HashIdx}, {"val", BTreeIdx}} {
		ti := &TableIndex{Table: ev, Col: ix.col, Kind: ix.kind}
		ci := ev.Schema().Col(ix.col)
		if ix.kind == HashIdx {
			ti.Hash, err = index.BuildHash(context.Background(), ev, ci)
		} else {
			ti.BTree, err = index.BuildBTree(context.Background(), ev, ci)
		}
		if err != nil {
			tb.Fatal(err)
		}
		cat.Indexes = append(cat.Indexes, ti)
	}
	return ev, cat
}

var indexVsScanCases = []struct {
	name      string
	pred      func(n int) Pred
	wantIndex bool
}{
	{"point", func(n int) Pred { return Cmp{Col: "eid", Op: Eq, Val: core.Int(int64(n / 2))} }, true},
	{"range1pct", func(int) Pred { return Cmp{Col: "val", Op: Lt, Val: core.Int(10)} }, true},
	{"wide50pct", func(int) Pred { return Cmp{Col: "grp", Op: Eq, Val: core.Str("hot")} }, false},
}

// indexVsScanPlans returns a case's plan without statistics (a full
// scan) and with them, failing when the latter names the wrong path.
func indexVsScanPlans(tb testing.TB, ev *table.Table, cat *Catalog, n, i int) (scan, costed Node) {
	tb.Helper()
	c := indexVsScanCases[i]
	q := &Select{Child: &Scan{Table: ev}, Pred: c.pred(n)}
	costed = OptimizeCatalog(q, cat)
	if got := strings.Contains(Explain(costed), "indexscan"); got != c.wantIndex {
		tb.Fatalf("%s: explain names the wrong access path (index=%v):\n%s", c.name, got, Explain(costed))
	}
	return Optimize(q), costed
}

// TestIndexVsScanChoice is E16 at quick scale: on 5 000 rows the point
// lookup and the 1 % range take an index, the half-the-table predicate
// keeps the scan, and each plan returns the scan's rows.
func TestIndexVsScanChoice(t *testing.T) {
	const n = 5_000
	ev, cat := indexVsScan(t, n)
	for i := range indexVsScanCases {
		scan, costed := indexVsScanPlans(t, ev, cat, n, i)
		want, _, err := Execute(scan)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Execute(costed)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, want, got)
	}
}

// BenchmarkIndexVsScan is E16 at full scale (100 000 rows): each case's
// full scan (base) against the cost-based plan (variant). The claim: the
// point lookup through the hash index is at least 10× faster.
func BenchmarkIndexVsScan(b *testing.B) {
	const n = 100_000
	ev, cat := indexVsScan(b, n)
	for i, c := range indexVsScanCases {
		scan, costed := indexVsScanPlans(b, ev, cat, n, i)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			run := func(p Node) func() {
				return func() {
					if _, _, err := Execute(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			if x := xtest.Versus(b, run(scan), run(costed)); c.name == "point" && x < 10 {
				b.Fatalf("point lookup only %.1fx faster than the scan", x)
			}
		})
	}
}
