package exec_test

import (
	"context"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/table"
	"xst/internal/workload"
	"xst/internal/xtest"
)

// E9's engine half (§11, Thm 11.2 as an optimization): a chain of
// stages run the pre-composition way, each stage consuming the fully
// materialized output of the one before, against the same stages
// composed into one pass over the scan.

// runStaged is the staged baseline. Its first scan is copied whole into
// one batch, and each later stage sees the previous intermediate in
// page-sized chunks so operator scratch reuse stays comparable.
func runStaged(src *table.Table, ops []exec.Op) ([]table.Row, error) {
	var cur table.Batch
	scan := exec.NewScan(src, nil)
	if err := scan.Open(context.Background()); err != nil {
		return nil, err
	}
	defer scan.Close()
	for {
		b, err := scan.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		cur.AppendSel(b, nil)
	}
	for _, op := range ops {
		var next, in table.Batch
		const chunk = 256
		for i := 0; i < cur.Len; i += chunk {
			var sel []int32
			for r := i; r < min(i+chunk, cur.Len); r++ {
				sel = append(sel, int32(r))
			}
			in.Gather(&cur, sel)
			next.AppendSel(op.Process(&in), nil)
		}
		cur = next
	}
	rows, _ := cur.AppendRows(nil, nil)
	return rows, nil
}

// TestPipelineComposedEqualsStaged pins E9's baseline to the tree it is
// measured against: the staged run and the composed pass return the
// same rows in the same order.
func TestPipelineComposedEqualsStaged(t *testing.T) {
	ds, err := workload.Build(workload.Spec{Seed: 7, Users: 600, Orders: 1, Cities: 5}, 64)
	if err != nil {
		t.Fatal(err)
	}
	cityCol, scoreCol := ds.Users.Schema().Col("city"), ds.Users.Schema().Col("score")
	city := workload.SelectivityValue(5)
	ops := func() []exec.Op {
		return []exec.Op{
			&exec.Restrict{Filter: exec.RowPred(func(r table.Row) bool { return core.Equal(r[cityCol], city) }), Name: "city"},
			&exec.Restrict{Filter: exec.RowPred(func(r table.Row) bool { return core.Compare(r[scoreCol], core.Int(50)) < 0 }), Name: "score<50"},
			&exec.Project{Cols: []int{0}},
		}
	}
	composed, err := exec.Collect(context.Background(), exec.NewStages(exec.NewScan(ds.Users, nil), ops()...))
	if err != nil {
		t.Fatal(err)
	}
	staged, err := runStaged(ds.Users, ops())
	if err != nil {
		t.Fatal(err)
	}
	if len(composed) == 0 || len(composed) != len(staged) {
		t.Fatalf("composed %d rows vs staged %d rows", len(composed), len(staged))
	}
	for i := range composed {
		if !core.Equal(composed[i][0], staged[i][0]) {
			t.Fatalf("row %d: %v vs %v", i, composed[i], staged[i])
		}
	}
}

// BenchmarkStagedVsComposed is E9's engine half at full scale: four
// stages over 40 000 users, staged as base and composed as variant. The
// claim: the composed pass is not slower.
func BenchmarkStagedVsComposed(b *testing.B) {
	ds, err := workload.Build(workload.Spec{Seed: 42, Users: 40_000, Orders: 1, Cities: 50}, 512)
	if err != nil {
		b.Fatal(err)
	}
	scoreCol, cityCol := ds.Users.Schema().Col("score"), ds.Users.Schema().Col("city")
	ops := func() []exec.Op {
		return []exec.Op{
			&exec.Restrict{Filter: exec.RowPred(func(r table.Row) bool {
				return core.Compare(r[scoreCol], core.Int(80)) < 0
			}), Name: "score<80"},
			&exec.Restrict{Filter: exec.RowPred(func(r table.Row) bool {
				return core.Compare(r[scoreCol], core.Int(20)) >= 0
			}), Name: "score>=20"},
			&exec.Restrict{Filter: exec.RowPred(func(r table.Row) bool {
				return !core.Equal(r[cityCol], core.Str("city-000"))
			}), Name: "city!=0"},
			&exec.Project{Cols: []int{0}},
		}
	}
	b.Run("rows=40000", func(b *testing.B) {
		var staged, composed int
		x := xtest.Versus(b, func() {
			out, err := runStaged(ds.Users, ops())
			if err != nil {
				b.Fatal(err)
			}
			staged = len(out)
		}, func() {
			if composed, err = exec.Count(context.Background(), exec.NewStages(exec.NewScan(ds.Users, nil), ops()...)); err != nil {
				b.Fatal(err)
			}
		})
		if staged != composed {
			b.Fatalf("staged %d rows, composed %d", staged, composed)
		}
		if x < 1 {
			b.Fatalf("composed pass %.2fx of staged: slower", x)
		}
	})
}
