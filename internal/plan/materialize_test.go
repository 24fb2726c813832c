package plan

import (
	"context"
	"fmt"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/table"
)

// ExecuteMaterialized runs the plan the pre-streaming way: maximal
// scan–select–project chains over one table become a single scan and
// its stages, but every join child and every remaining operator consumes
// the *fully materialized* output of the one below it. Kept as the
// differential baseline for the streaming tree — equivalence tests and
// BenchmarkStreamVsMaterialize run both paths over the same plans.
func ExecuteMaterialized(n Node) ([]table.Row, table.Schema, error) {
	var st ExecStats
	rows, sch, err := execNode(n, &st)
	return rows, sch, err
}

// ExecuteMaterializedStats is ExecuteMaterialized with physical
// counters; PeakIntermediateRows reports the largest intermediate
// result held between operators.
func ExecuteMaterializedStats(n Node) ([]table.Row, table.Schema, ExecStats, error) {
	var st ExecStats
	rows, sch, err := execNode(n, &st)
	return rows, sch, st, err
}

func (st *ExecStats) intermediate(rows []table.Row) {
	if len(rows) > st.PeakIntermediateRows {
		st.PeakIntermediateRows = len(rows)
	}
}

func execNode(n Node, st *ExecStats) ([]table.Row, table.Schema, error) {
	// A single-table chain compiles to one pipeline.
	if src, ops, ok := compileChain(n); ok {
		st.Pipelines++
		scan := exec.NewScan(src, nil)
		rows, err := exec.Collect(context.Background(), exec.NewStages(scan, ops...))
		if err != nil {
			return nil, table.Schema{}, err
		}
		st.RowsScanned += scan.Stats().RowsIn
		st.intermediate(rows)
		return rows, n.Schema(), nil
	}
	switch x := n.(type) {
	case *Join:
		lrows, lsch, err := execNode(x.Left, st)
		if err != nil {
			return nil, table.Schema{}, err
		}
		rrows, rsch, err := execNode(x.Right, st)
		if err != nil {
			return nil, table.Schema{}, err
		}
		li, ri := lsch.Col(x.LeftCol), rsch.Col(x.RightCol)
		if li < 0 || ri < 0 {
			return nil, table.Schema{}, fmt.Errorf("plan: join column %q/%q not found", x.LeftCol, x.RightCol)
		}
		build := make(map[string][]table.Row, len(rrows))
		for _, r := range rrows {
			k := core.Key(r[ri])
			build[k] = append(build[k], r)
		}
		var out []table.Row
		for _, l := range lrows {
			for _, r := range build[core.Key(l[li])] {
				row := make(table.Row, 0, len(l)+len(r))
				row = append(row, l...)
				row = append(row, r...)
				out = append(out, row)
			}
		}
		st.RowsJoined += len(out)
		st.intermediate(out)
		return out, x.Schema(), nil
	case *Select:
		rows, sch, err := execNode(x.Child, st)
		if err != nil {
			return nil, table.Schema{}, err
		}
		var out []table.Row
		for _, r := range rows {
			if eval(x.Pred, sch, r) {
				out = append(out, r)
			}
		}
		st.intermediate(out)
		return out, sch, nil
	case *Project:
		rows, sch, err := execNode(x.Child, st)
		if err != nil {
			return nil, table.Schema{}, err
		}
		idx := make([]int, len(x.Cols))
		for i, c := range x.Cols {
			idx[i] = sch.Col(c)
			if idx[i] < 0 {
				return nil, table.Schema{}, fmt.Errorf("plan: project column %q not found", c)
			}
		}
		out := make([]table.Row, len(rows))
		for i, r := range rows {
			nr := make(table.Row, len(idx))
			for j, k := range idx {
				nr[j] = r[k]
			}
			out[i] = nr
		}
		st.intermediate(out)
		return out, x.Schema(), nil
	default:
		return nil, table.Schema{}, fmt.Errorf("plan: cannot execute %T materialized", n)
	}
}

// compileChain recognizes Select/Project chains rooted at a Scan and
// compiles them into the stages of a single scan.
func compileChain(n Node) (*table.Table, []exec.Op, bool) {
	var build func(n Node) (*table.Table, table.Schema, []exec.Op, bool)
	build = func(n Node) (*table.Table, table.Schema, []exec.Op, bool) {
		switch x := n.(type) {
		case *Scan:
			return x.Table, x.Table.Schema(), nil, true
		case *Select:
			src, sch, ops, ok := build(x.Child)
			if !ok {
				return nil, table.Schema{}, nil, false
			}
			ops = append(ops, &exec.Restrict{Filter: evalFilter(x.Pred, sch), Name: x.Pred.String()})
			return src, sch, ops, true
		case *Project:
			src, sch, ops, ok := build(x.Child)
			if !ok {
				return nil, table.Schema{}, nil, false
			}
			idx := make([]int, len(x.Cols))
			for i, c := range x.Cols {
				idx[i] = sch.Col(c)
				if idx[i] < 0 {
					return nil, table.Schema{}, nil, false
				}
			}
			ops = append(ops, &exec.Project{Cols: idx})
			return src, x.Schema(), ops, true
		default:
			return nil, table.Schema{}, nil, false
		}
	}
	src, _, ops, ok := build(n)
	return src, ops, ok
}
