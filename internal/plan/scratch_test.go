package plan

import (
	"context"
	"fmt"
	"testing"

	"xst/internal/exec"
	"xst/internal/table"
	"xst/internal/xtest"
)

// poisonLeaves makes lowering wrap every scan and join probe in
// xtest.PoisonScratch for the rest of the test.
func poisonLeaves(t *testing.T) {
	t.Helper()
	leafHook = func(op exec.Operator) exec.Operator { return xtest.PoisonScratch(op) }
	t.Cleanup(func() { leafHook = nil })
}

// TestPoisonedScratchKeepsAnswers is the retention safety net: every
// plan of the three differential corpora — streaming vs materialized,
// the pipeline breakers, and the 24 queries under both optimizers —
// must return the rows of its plain serial tree when every scan and
// join probe overwrites its previous batch before producing the next,
// serial and at every degree of parallelism. An operator that keeps a
// scratch row past its pull then computes on xtest.Poison, and the row
// multisets differ.
func TestPoisonedScratchKeepsAnswers(t *testing.T) {
	type corpus struct {
		name  string
		plans []Node
	}
	queries, cat := differentialQueries(t)
	var heuristic, costed []Node
	for _, q := range queries {
		heuristic = append(heuristic, Optimize(q))
		costed = append(costed, OptimizeCatalog(q, cat))
	}
	corpora := []corpus{
		{"stream", streamPlans(t)},
		{"breakers", breakerPlans(t)},
		{"queries/heuristic", heuristic},
		{"queries/cost-based", costed},
	}
	ctx := context.Background()
	for _, c := range corpora {
		want := make([][]table.Row, len(c.plans))
		for i, p := range c.plans {
			serial, err := Compile(p)
			if err != nil {
				t.Fatalf("%s plan %d: %v", c.name, i, err)
			}
			if want[i], err = exec.Collect(ctx, serial); err != nil {
				t.Fatalf("%s plan %d: %v", c.name, i, err)
			}
		}
		for dop := 1; dop <= 4; dop++ {
			t.Run(fmt.Sprintf("%s/dop=%d", c.name, dop), func(t *testing.T) {
				poisonLeaves(t)
				for i, p := range c.plans {
					op, err := CompileDOP(p, dop)
					if err != nil {
						t.Fatalf("plan %d compile: %v", i, err)
					}
					got, err := exec.Collect(ctx, op)
					if err != nil {
						t.Fatalf("plan %d: %v", i, err)
					}
					sameRows(t, got, want[i])
				}
			})
		}
	}
}
