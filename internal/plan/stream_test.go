package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xtest"
)

// streamPlans is the differential corpus: every plan shape the two
// executors both support, including a multi-stage query large enough
// that streaming and materialization behave measurably differently.
func streamPlans(t *testing.T) []Node {
	u, o := testTables(t, 60, 400)
	return []Node{
		&Select{
			Child: &Scan{Table: u},
			Pred:  Cmp{Col: "score", Op: Gt, Val: core.Int(40)},
		},
		&Project{
			Child: &Select{Child: &Scan{Table: o}, Pred: Cmp{Col: "amount", Op: Lt, Val: core.Int(500)}},
			Cols:  []string{"ouid", "amount"},
		},
		&Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
		&Project{
			Child: &Select{
				Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
				Pred:  And{Cmp{Col: "score", Op: Ge, Val: core.Int(20)}, Cmp{Col: "amount", Op: Lt, Val: core.Int(800)}},
			},
			Cols: []string{"city", "amount"},
		},
	}
}

// TestStreamingMatchesMaterialized is the refactor's safety net: the
// streaming operator tree and the materialized baseline must agree on
// every plan, optimized or not.
func TestStreamingMatchesMaterialized(t *testing.T) {
	for i, p := range streamPlans(t) {
		srows, ssch, err := Execute(p)
		if err != nil {
			t.Fatalf("plan %d streaming: %v", i, err)
		}
		mrows, msch, err := ExecuteMaterialized(p)
		if err != nil {
			t.Fatalf("plan %d materialized: %v", i, err)
		}
		sameRows(t, srows, mrows)
		if strings.Join(ssch.Cols, ",") != strings.Join(msch.Cols, ",") {
			t.Fatalf("plan %d schemas differ: %v vs %v", i, ssch.Cols, msch.Cols)
		}
		orows, _, err := Execute(OptimizeCatalog(p, nil))
		if err != nil {
			t.Fatalf("plan %d optimized: %v", i, err)
		}
		sameRows(t, srows, orows)
	}
}

// TestPeakIntermediateRowsBounded verifies the tentpole's no-full-
// materialization claim with the counter itself: on a multi-stage query
// whose result far exceeds one batch, the streaming tree never has more
// than MaxBatchRows in flight between operators, while the materialized
// executor's peak is the full intermediate result.
func TestPeakIntermediateRowsBounded(t *testing.T) {
	u, o := testTables(t, 50, 5000)
	p := &Project{
		Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
		Cols:  []string{"city", "amount"},
	}
	_, _, sst, err := ExecuteStats(p)
	if err != nil {
		t.Fatal(err)
	}
	if sst.PeakIntermediateRows > exec.MaxBatchRows {
		t.Fatalf("streaming peak %d rows exceeds one batch (%d)",
			sst.PeakIntermediateRows, exec.MaxBatchRows)
	}
	_, _, mst, err := ExecuteMaterializedStats(p)
	if err != nil {
		t.Fatal(err)
	}
	if mst.PeakIntermediateRows <= exec.MaxBatchRows {
		t.Fatalf("materialized peak %d unexpectedly small — corpus no longer stresses streaming",
			mst.PeakIntermediateRows)
	}
	if sst.RowsJoined != mst.RowsJoined {
		t.Fatalf("executors disagree on join output: %d vs %d", sst.RowsJoined, mst.RowsJoined)
	}
}

// TestSelfJoinAutoQualifies locks the join-collision satellite: a
// self-join's duplicate column names are auto-qualified, resolvable on
// both sides, and flagged as ambiguous only when genuinely duplicated.
func TestSelfJoinAutoQualifies(t *testing.T) {
	u, _ := testTables(t, 20, 0)
	j := &Join{Left: &Scan{Table: u}, Right: &Scan{Table: u}, LeftCol: "uid", RightCol: "uid"}
	sch := j.Schema()
	want := []string{"uid", "city", "score", "users.uid", "users.city", "users.score"}
	if strings.Join(sch.Cols, ",") != strings.Join(want, ",") {
		t.Fatalf("self-join schema = %v, want %v", sch.Cols, want)
	}
	rows, _, err := Execute(&Project{Child: j, Cols: []string{"uid", "users.uid"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("self-join on uid returned %d rows, want 20", len(rows))
	}
	for _, r := range rows {
		if !core.Equal(r[0], r[1]) {
			t.Fatalf("qualified column resolved to wrong side: %v", r)
		}
	}
}

func TestGroupSortLimitPlan(t *testing.T) {
	u, o := testTables(t, 30, 300)
	p := &Limit{
		Child: &Sort{
			Child: &GroupBy{
				Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
				Key:   "city",
				Aggs:  []AggSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: "amount"}},
			},
			Col:  "count",
			Desc: true,
		},
		N: 2,
	}
	rows, sch, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("limit kept %d rows, want 2", len(rows))
	}
	wantCols := []string{"city", "count", "sum(amount)"}
	if strings.Join(sch.Cols, ",") != strings.Join(wantCols, ",") {
		t.Fatalf("schema = %v, want %v", sch.Cols, wantCols)
	}
	if core.Compare(rows[0][1], rows[1][1]) < 0 {
		t.Fatalf("not sorted desc by count: %v", rows)
	}
	// Optimizer must pass the new nodes through unchanged semantics.
	orows, _, err := Execute(OptimizeCatalog(p, nil))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows, orows)
}

func TestExecuteCancelStreaming(t *testing.T) {
	u, o := testTables(t, 50, 8000)
	p := &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}
	xtest.AssertCancelAborts(t, 5, func(ctx context.Context) error {
		_, _, err := ExecuteCtx(ctx, p)
		return err
	})
}

func TestExplainAnalyze(t *testing.T) {
	u, o := testTables(t, 30, 200)
	p := &Select{
		Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
		Pred:  Cmp{Col: "score", Op: Gt, Val: core.Int(10)},
	}
	out, err := ExplainAnalyze(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hashjoin[ouid=uid]", "scan(orders)", "scan(users)", "rows=", "batches="} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainAnalyze output missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkStreamVsMaterialize compares the two plan executors on a
// multi-stage query (join → select → project) whose intermediate result
// is much larger than its final one: the streaming operator tree keeps
// at most one batch in flight between operators, while the materialized
// baseline builds the whole join output first. Streaming must be no
// slower while allocating measurably less (the -benchmem columns).
func BenchmarkStreamVsMaterialize(b *testing.B) {
	pool := store.NewBufferPool(store.NewMemPager(), 256)
	users, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"uid", "city", "score"}})
	if err != nil {
		b.Fatal(err)
	}
	orders, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"oid", "ouid", "amount"}})
	if err != nil {
		b.Fatal(err)
	}
	r := xtest.NewRand(7)
	const nUsers, nOrders = 200, 20000
	for i := 0; i < nUsers; i++ {
		users.Insert(table.Row{core.Int(i), core.Str(fmt.Sprintf("city-%02d", r.Intn(8))), core.Int(r.Intn(100))})
	}
	for i := 0; i < nOrders; i++ {
		orders.Insert(table.Row{core.Int(i), core.Int(r.Intn(nUsers)), core.Int(r.Intn(1000))})
	}
	query := func() Node {
		return &Project{
			Child: &Select{
				Child: &Join{
					Left: &Scan{Table: orders}, Right: &Scan{Table: users},
					LeftCol: "ouid", RightCol: "uid",
				},
				Pred: Cmp{Col: "score", Op: Gt, Val: core.Int(50)},
			},
			Cols: []string{"city", "amount"},
		}
	}

	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, _, st, err := ExecuteStats(query())
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 || st.PeakIntermediateRows > exec.MaxBatchRows {
				b.Fatalf("rows=%d peak=%d", len(rows), st.PeakIntermediateRows)
			}
		}
	})
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, _, err := ExecuteMaterialized(query())
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("no rows")
			}
		}
	})
}
