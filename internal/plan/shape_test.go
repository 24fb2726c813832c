package plan

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/trace"
)

// The physical shape of every plan is pinned: one lowering serves every
// degree of parallelism, and it must build the trees the serial
// compiler and the parallel one built before it. testdata/shapes.golden
// holds, per plan, the ExecStats of its drained DOP-1 tree and the
// operators of its DOP-2 tree, as recorded from the two compilers.

// shapePlans are the plans whose shapes are pinned: the analytic
// workload's shapes, by name, pipeline breakers below operators that
// run per worker, then every reference plan that lowers (the
// federation's Source leaves there have no constructor).
func shapePlans(t *testing.T) []Node {
	o, u := analyticTables(t, 3_000, 300)
	shapes := analyticShapes(o, u)
	var names []string
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	var plans []Node
	for _, name := range names {
		plans = append(plans, shapes[name])
	}
	count := []AggSpec{{Kind: exec.AggCount}}
	plans = append(plans,
		&Project{Cols: []string{"uid", "count"}, Child: &GroupBy{Child: &Scan{Table: o}, Key: "uid", Aggs: count}},
		&Select{Child: &Limit{Child: &Scan{Table: o}, N: 10}, Pred: Cmp{Col: "amount", Op: Lt, Val: core.Int(500)}},
		&Join{Left: &Scan{Table: o}, Right: &GroupBy{Child: &Scan{Table: u}, Key: "uid2", Aggs: count}, LeftCol: "uid", RightCol: "uid2"},
		&GroupBy{Child: &Distinct{Child: &Project{Cols: []string{"city"}, Child: &Scan{Table: u}}}, Key: "city", Aggs: count},
	)
	for _, p := range referencePlans(t) {
		lowers := true
		walkNodes(p, func(n Node) {
			if s, ok := n.(*Source); ok && s.New == nil {
				lowers = false
			}
		})
		if lowers {
			plans = append(plans, p)
		}
	}
	return plans
}

// shapeLine renders p's shape: the DOP-1 tree's ExecStats once drained,
// and the DOP-2 tree's operators in preorder, a space of indent a level.
func shapeLine(t *testing.T, p Node) string {
	t.Helper()
	op, err := CompileDOP(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Count(context.Background(), op); err != nil {
		t.Fatal(err)
	}
	st := TreeStats(op)
	if op, err = CompileDOP(p, 2); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var ops []string
	exec.Walk(op, func(o exec.Operator, depth int) { ops = append(ops, strings.Repeat(" ", depth)+o.String()) })
	return fmt.Sprintf("pipelines=%d scanned=%d build=%d group=%d workers=%d peak=%d | %s",
		st.Pipelines, st.RowsScanned, st.BuildRows, st.GroupRows, st.Workers, st.PeakIntermediateRows,
		strings.Join(ops, ";"))
}

// TestShapesMatchRecorded holds every plan to its recorded shape.
func TestShapesMatchRecorded(t *testing.T) {
	data, err := os.ReadFile("testdata/shapes.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	plans := shapePlans(t)
	if len(plans) != len(want) {
		t.Fatalf("%d plans, %d recorded shapes", len(plans), len(want))
	}
	for i, p := range plans {
		if got := shapeLine(t, p); got != want[i] {
			t.Errorf("plan %d (%v):\n got  %s\n want %s", i, p, got, want[i])
		}
	}
}

// TestOneWorkerTreesAreSerial: at DOP 1 no plan lowers to an exchange or
// a fan-out operator, and a traced run opens no per-worker or merge span.
func TestOneWorkerTreesAreSerial(t *testing.T) {
	for i, p := range shapePlans(t) {
		op, err := CompileDOP(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		exec.Walk(op, func(o exec.Operator, _ int) {
			switch o.(type) {
			case *exec.Gather, *exec.HashBuild, *exec.ProbeJoin, *exec.ParallelGroupAgg, *exec.MorselScan:
				t.Errorf("plan %d: %s in a one-worker tree", i, o)
			}
		})
		root := trace.NewRoot("q")
		if _, err := exec.Count(trace.WithSpan(context.Background(), root), op); err != nil {
			t.Fatal(err)
		}
		root.End()
		root.Snapshot().Walk(func(sp trace.SpanSnapshot, _ int) {
			for _, name := range []string{"worker[", "build[", "partial[", "merge"} {
				if strings.HasPrefix(sp.Name, name) {
					t.Errorf("plan %d: a one-worker run opened span %q", i, sp.Name)
				}
			}
		})
	}
}
