package bench

import (
	"context"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/table"
	"xst/internal/workload"
)

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
			&exec.Restrict{Pred: func(r table.Row) bool { return core.Equal(r[cityCol], city) }, Name: "city"},
			&exec.Restrict{Pred: func(r table.Row) bool { return core.Compare(r[scoreCol], core.Int(50)) < 0 }, Name: "score<50"},
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
