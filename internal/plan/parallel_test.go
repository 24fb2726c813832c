package plan

import (
	"context"
	"strings"
	"testing"

	"xst/internal/exec"
	"xst/internal/table"
	"xst/internal/xtest"
)

// forceParallel lowers the parallel threshold (and caps the fan-out) so
// test-scale tables compile to real parallel trees, restoring the
// defaults on cleanup.
func forceParallel(t testing.TB, threshold, dop int) {
	t.Helper()
	oldT, oldD := ParallelThreshold, MaxDOP
	ParallelThreshold, MaxDOP = threshold, dop
	t.Cleanup(func() { ParallelThreshold, MaxDOP = oldT, oldD })
}

func TestChooseDOP(t *testing.T) {
	_, o := testTables(t, 50, 400)
	scan := &Scan{Table: o}
	if d := ChooseDOP(scan); d != 1 {
		t.Fatalf("400 rows under default threshold chose dop %d, want 1 (serial)", d)
	}
	forceParallel(t, 64, 4)
	if d := ChooseDOP(scan); d != 4 {
		t.Fatalf("dop = %d, want the MaxDOP cap 4", d)
	}
	MaxDOP = 2
	if d := ChooseDOP(scan); d != 2 {
		t.Fatalf("dop = %d, want the MaxDOP cap 2", d)
	}
	ParallelThreshold = 1000
	MaxDOP = 4
	if d := ChooseDOP(scan); d != 1 {
		t.Fatalf("400 rows under threshold 1000 chose dop %d, want 1", d)
	}
	// Joins parallelize off their largest base input.
	u, _ := testTables(t, 50, 0)
	ParallelThreshold = 64
	j := &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}
	if d := ChooseDOP(j); d != 4 {
		t.Fatalf("join dop = %d, want 4 from the 400-row probe side", d)
	}
}

// TestCompileDOPMatchesSerial is E13's check at quick scale: every
// corpus plan must produce the same row multiset from the tree at 2, 4
// and 8 workers, the one-worker tree, and the materialized baseline.
func TestCompileDOPMatchesSerial(t *testing.T) {
	for i, p := range streamPlans(t) {
		serial, err := Compile(p)
		if err != nil {
			t.Fatalf("plan %d compile: %v", i, err)
		}
		want, err := exec.Collect(context.Background(), serial)
		if err != nil {
			t.Fatalf("plan %d serial: %v", i, err)
		}
		var got []table.Row
		for _, dop := range []int{2, 4, 8} {
			par, err := CompileDOP(p, dop)
			if err != nil {
				t.Fatalf("plan %d compile dop=%d: %v", i, dop, err)
			}
			if got, err = exec.Collect(context.Background(), par); err != nil {
				t.Fatalf("plan %d dop=%d: %v", i, dop, err)
			}
			sameRows(t, got, want)
		}
		mrows, _, err := ExecuteMaterialized(p)
		if err != nil {
			t.Fatalf("plan %d materialized: %v", i, err)
		}
		sameRows(t, got, mrows)
	}
}

// TestCompileDOPBreakerPlans covers the pipeline breakers: parallel
// partial aggregation and the serial operators (sort, distinct, limit)
// stacked above a parallel spine.
func TestCompileDOPBreakerPlans(t *testing.T) {
	for i, p := range breakerPlans(t) {
		serial, err := Compile(p)
		if err != nil {
			t.Fatalf("plan %d compile: %v", i, err)
		}
		want, err := exec.Collect(context.Background(), serial)
		if err != nil {
			t.Fatalf("plan %d serial: %v", i, err)
		}
		par, err := CompileDOP(p, 4)
		if err != nil {
			t.Fatalf("plan %d compile dop=4: %v", i, err)
		}
		got, err := exec.Collect(context.Background(), par)
		if err != nil {
			t.Fatalf("plan %d parallel: %v", i, err)
		}
		sameRows(t, got, want)
	}
}

// breakerPlans are the pipeline-breaker shapes: aggregates, sorts,
// limits and distincts above a spine that can fan out.
func breakerPlans(t *testing.T) []Node {
	t.Helper()
	u, o := testTables(t, 60, 400)
	join := func() *Join {
		return &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}
	}
	return []Node{
		&GroupBy{Child: join(), Key: "city",
			Aggs: []AggSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: "amount"}, {Kind: exec.AggMax, Col: "score"}}},
		&GroupBy{Child: &Scan{Table: u}, Key: "city", Aggs: []AggSpec{{Kind: exec.AggCount}}},
		// Sort/Limit on the unique oid so the parallel tree's arbitrary
		// interleaving cannot change which rows survive.
		&Sort{Child: join(), Col: "oid", Desc: true},
		&Limit{Child: &Sort{Child: join(), Col: "oid"}, N: 7},
		&Distinct{Child: &Project{Child: &Scan{Table: u}, Cols: []string{"city"}}},
	}
}

// TestCompileDOPFallsBackSerial: a plan whose spine cannot fan out
// (aggregate over a limit) lowers to one worker at any dop — no
// exchange operators appear.
func TestCompileDOPFallsBackSerial(t *testing.T) {
	_, o := testTables(t, 50, 400)
	p := &GroupBy{
		Child: &Limit{Child: &Scan{Table: o}, N: 100},
		Key:   "ouid",
		Aggs:  []AggSpec{{Kind: exec.AggCount}},
	}
	op, err := CompileDOP(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	exec.Walk(op, func(o exec.Operator, _ int) {
		switch o.(type) {
		case *exec.Gather, *exec.ParallelGroupAgg, *exec.MorselScan:
			t.Fatalf("non-parallelizable plan compiled a parallel operator: %s", o)
		}
	})
	if _, err := exec.Count(context.Background(), op); err != nil {
		t.Fatal(err)
	}
}

// TestParallelExecStats: the cost-chosen parallel run reports its
// worker fan-out and keeps peak in-flight rows bounded by the exchange,
// while producing the same result as the serial tree.
func TestParallelExecStats(t *testing.T) {
	forceParallel(t, 64, 4)
	u, o := testTables(t, 50, 2000)
	p := &GroupBy{
		Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
		Key:   "city",
		Aggs:  []AggSpec{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: "amount"}},
	}
	rows, _, st, err := ExecuteStats(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers == 0 {
		t.Fatal("parallel plan reported zero workers")
	}
	if st.RowsScanned != 2050 {
		t.Fatalf("scanned %d rows, want 2050", st.RowsScanned)
	}
	if bound := 2 * 4 * exec.MaxBatchRows; st.PeakIntermediateRows > bound {
		t.Fatalf("peak %d rows in flight exceeds exchange bound %d", st.PeakIntermediateRows, bound)
	}

	serial, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Collect(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows, want)
}

// TestExecStatsSerialBelowThreshold: with the default threshold,
// test-scale queries keep the serial tree (Workers = 0).
func TestExecStatsSerialBelowThreshold(t *testing.T) {
	u, o := testTables(t, 50, 400)
	p := &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}
	_, _, st, err := ExecuteStats(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 0 {
		t.Fatalf("small query fanned out to %d workers, want serial", st.Workers)
	}
}

func TestExplainAnalyzeParallel(t *testing.T) {
	forceParallel(t, 64, 4)
	u, o := testTables(t, 50, 2000)
	j := &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}
	out, err := ExplainAnalyze(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gather[4]", "morselscan(orders)", "probejoin[", "hashbuild["} {
		if !strings.Contains(out, want) {
			t.Fatalf("parallel ExplainAnalyze missing %q:\n%s", want, out)
		}
	}
	g := &GroupBy{Child: j, Key: "city", Aggs: []AggSpec{{Kind: exec.AggCount}}}
	out, err = ExplainAnalyze(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pgroupagg[") {
		t.Fatalf("parallel aggregate ExplainAnalyze missing pgroupagg:\n%s", out)
	}
}

func TestParallelExecuteCancel(t *testing.T) {
	forceParallel(t, 64, 4)
	u, o := testTables(t, 50, 8000)
	p := &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}
	xtest.AssertCancelAborts(t, 5, func(ctx context.Context) error {
		_, _, err := ExecuteCtx(ctx, p)
		return err
	})
}
