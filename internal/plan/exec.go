package plan

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xst/internal/exec"
	"xst/internal/table"
	"xst/internal/trace"
)

// Execution lowers logical plans onto the streaming operator tree
// (internal/exec): every node compiles to a batch iterator, so the only
// full materializations anywhere in a run are the hash-join build side,
// the sort buffer, and the aggregate's accumulator table —
// ExecStats.PeakIntermediateRows verifies nothing else ever holds more
// than one batch. The pre-streaming executor survives only as the
// test oracle in materialize_test.go, for differential tests and the
// streaming-vs-materialized benchmark.

// ExecStats reports physical work done by one execution.
type ExecStats struct {
	// RowsScanned counts rows read from base tables.
	RowsScanned int
	// RowsJoined counts rows emitted by join operators.
	RowsJoined int
	// Pipelines counts streaming scan sources (one per base table; the
	// materialized executor counts compiled single-table pipelines).
	Pipelines int
	// Operators counts physical operators in the tree.
	Operators int
	// PeakIntermediateRows is the largest batch any operator emitted —
	// the most rows ever in flight *between* operators. The streaming
	// tree keeps this ≤ exec.MaxBatchRows regardless of result size;
	// the materialized executor reports its largest intermediate
	// result here instead.
	PeakIntermediateRows int
	// BuildRows counts rows held in hash-join build indexes (the
	// cost-chosen smaller sides).
	BuildRows int
	// SortRows counts rows buffered by sort operators.
	SortRows int
	// GroupRows counts aggregate accumulators (one per distinct key).
	GroupRows int
	// Workers counts parallel workers across the plan's exchanges; 0
	// for a fully serial tree.
	Workers int
}

// Compile lowers a logical plan to a streaming operator tree. Every
// join builds its right input, the side ChooseJoinSides picked, so
// lowering makes no cost decision of its own; join inputs with
// colliding column names are rejected rather than silently
// misresolved. The returned tree is single-use: compile a fresh one
// per execution.
func Compile(n Node) (exec.Operator, error) { return compile(n, nil) }

// leafHook, set only by this package's tests, wraps every operator
// lowering builds whose batches are scratch it refills in place — the
// scans and the join probes — so the differential suites can run with
// xtest.PoisonScratch around each of them.
var leafHook func(exec.Operator) exec.Operator

// leaf passes a freshly built scratch-batch operator through leafHook.
func leaf(op exec.Operator) exec.Operator {
	if leafHook != nil {
		return leafHook(op)
	}
	return op
}

// compile lowers n for consumers that read the positions need of its
// output (nil: all; see need.go).
func compile(n Node, need []bool) (exec.Operator, error) {
	switch x := n.(type) {
	case *Scan:
		return leaf(exec.NewScan(x.Table, need)), nil
	case *IndexAccess:
		if x.Idx.Kind == HashIdx {
			if x.Idx.Hash == nil {
				return nil, fmt.Errorf("plan: hash index on %s.%s has no structure", x.Idx.Table.Schema().Name, x.Idx.Col)
			}
			return exec.NewHashIndexScan(x.Idx.Table, x.Idx.Hash, x.Eq, accessDesc{x}, need), nil
		}
		if x.Idx.BTree == nil {
			return nil, fmt.Errorf("plan: btree index on %s.%s has no structure", x.Idx.Table.Schema().Name, x.Idx.Col)
		}
		return exec.NewBTreeIndexScan(x.Idx.Table, x.Idx.BTree, x.Lo, x.Hi, x.LoIncl, x.HiIncl, accessDesc{x}, need), nil
	case *Select:
		child, err := compile(x.Child, needBelow(x, need))
		if err != nil {
			return nil, err
		}
		return exec.NewStage(&exec.Restrict{
			Filter: CompilePred(x.Pred, child.OutSchema()),
			Name:   x.Pred.String(),
		}, child), nil
	case *Project:
		child, err := compile(x.Child, needBelow(x, need))
		if err != nil {
			return nil, err
		}
		sch := child.OutSchema()
		idx := make([]int, len(x.Cols))
		for i, c := range x.Cols {
			if idx[i], err = colIndex(sch, c, "project column"); err != nil {
				return nil, err
			}
		}
		return exec.NewStage(&exec.Project{Cols: idx}, child), nil
	case *Join:
		lneed, rneed := needOfJoin(x, need)
		left, err := compile(x.Left, lneed)
		if err != nil {
			return nil, err
		}
		right, err := compile(x.Right, rneed)
		if err != nil {
			return nil, err
		}
		li, err := colIndex(left.OutSchema(), x.LeftCol, "join column")
		if err != nil {
			left.Close()
			right.Close()
			return nil, err
		}
		ri, err := colIndex(right.OutSchema(), x.RightCol, "join column")
		if err != nil {
			left.Close()
			right.Close()
			return nil, err
		}
		return leaf(exec.NewHashJoin(left, right, li, ri)), nil
	case *Distinct:
		child, err := compile(x.Child, needBelow(x, need))
		if err != nil {
			return nil, err
		}
		return exec.NewStage(&exec.Distinct{}, child), nil
	case *Sort:
		child, err := compile(x.Child, needBelow(x, need))
		if err != nil {
			return nil, err
		}
		idx, err := colIndex(child.OutSchema(), x.Col, "sort column")
		if err != nil {
			child.Close()
			return nil, err
		}
		return exec.NewSort(child, idx, x.Desc), nil
	case *Limit:
		child, err := compile(x.Child, needBelow(x, need))
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(child, x.N), nil
	case *Source:
		return x.New()
	case *Rename:
		child, err := compile(x.Child, needBelow(x, need))
		if err != nil {
			return nil, err
		}
		if got, want := child.OutSchema().Arity(), len(x.Cols); got != want {
			child.Close()
			return nil, fmt.Errorf("plan: rename arity %d over child arity %d", want, got)
		}
		return exec.NewRename(child, x.Cols), nil
	case *GroupBy:
		child, err := compile(x.Child, needBelow(x, need))
		if err != nil {
			return nil, err
		}
		sch := child.OutSchema()
		key, err := colIndex(sch, x.Key, "group key")
		if err != nil {
			child.Close()
			return nil, err
		}
		aggs := make([]exec.Agg, len(x.Aggs))
		for i, a := range x.Aggs {
			aggs[i] = exec.Agg{Kind: a.Kind}
			if a.Kind != exec.AggCount {
				if aggs[i].Col, err = colIndex(sch, a.Col, "aggregate column"); err != nil {
					child.Close()
					return nil, err
				}
			}
		}
		return exec.NewGroupAgg(child, key, x.Groups, aggs...), nil
	default:
		return nil, fmt.Errorf("plan: cannot compile %T", n)
	}
}

// accessDesc labels an index scan with its access path's Desc, formatted
// only when a plan or trace prints it.
type accessDesc struct{ a *IndexAccess }

func (d accessDesc) String() string { return d.a.Desc() }

// colIndex resolves a column name, erroring when it is missing or
// appears more than once — Schema.Col silently resolves the first
// match, which would misread every reference to a shadowed column.
// (Join output schemas auto-qualify collisions, so ambiguity here means
// a source schema itself carries duplicate names.)
func colIndex(sch table.Schema, name, what string) (int, error) {
	idx := -1
	for i, c := range sch.Cols {
		if c != name {
			continue
		}
		if idx >= 0 {
			return -1, fmt.Errorf("plan: %s %q is ambiguous in %s (columns %v); qualify or rename it",
				what, name, sch.Name, sch.Cols)
		}
		idx = i
	}
	if idx < 0 {
		return -1, fmt.Errorf("plan: %s %q not found", what, name)
	}
	return idx, nil
}

// Execute runs the plan and returns the result rows with their schema.
func Execute(n Node) ([]table.Row, table.Schema, error) {
	return ExecuteCtx(context.Background(), n)
}

// ExecuteCtx is Execute under a cancellation context, polled once per
// batch throughout the tree.
func ExecuteCtx(ctx context.Context, n Node) ([]table.Row, table.Schema, error) {
	rows, sch, _, err := ExecuteStatsCtx(ctx, n)
	return rows, sch, err
}

// ExecuteStats runs the plan and also returns physical counters.
func ExecuteStats(n Node) ([]table.Row, table.Schema, ExecStats, error) {
	return ExecuteStatsCtx(context.Background(), n)
}

// ExecuteStatsCtx is ExecuteStats under a cancellation context. The
// degree of parallelism is cost-chosen (ChooseDOP): small inputs run
// the serial tree, large ones fan out across morsel workers.
func ExecuteStatsCtx(ctx context.Context, n Node) ([]table.Row, table.Schema, ExecStats, error) {
	op, err := CompileDOP(n, ChooseDOP(n))
	if err != nil {
		return nil, table.Schema{}, ExecStats{}, err
	}
	rows, err := exec.Collect(ctx, op)
	st := TreeStats(op)
	if err != nil {
		return nil, table.Schema{}, st, err
	}
	return rows, op.OutSchema(), st, nil
}

// TreeStats aggregates a (drained) operator tree's counters into
// ExecStats.
func TreeStats(op exec.Operator) ExecStats {
	var st ExecStats
	exec.Walk(op, func(o exec.Operator, _ int) {
		st.Operators++
		s := o.Stats()
		if s.MaxBatch > st.PeakIntermediateRows {
			st.PeakIntermediateRows = s.MaxBatch
		}
		switch x := o.(type) {
		case *exec.Scan:
			st.Pipelines++
			st.RowsScanned += s.RowsIn
		case *exec.IndexScan:
			st.Pipelines++
			st.RowsScanned += s.RowsIn
		case *exec.MorselScan:
			st.RowsScanned += s.RowsIn
		case *exec.Gather:
			// One parallel pipeline per exchange; its HeldRows is the
			// peak rows in flight across the worker fan-in, the parallel
			// analogue of the largest batch.
			st.Pipelines++
			st.Workers += x.Workers()
			if s.HeldRows > st.PeakIntermediateRows {
				st.PeakIntermediateRows = s.HeldRows
			}
		case *exec.HashJoin:
			st.RowsJoined += s.RowsOut
			st.BuildRows += s.HeldRows
		case *exec.HashBuild:
			st.BuildRows += s.HeldRows
		case *exec.ProbeJoin:
			st.RowsJoined += s.RowsOut
		case *exec.Sort:
			st.SortRows += s.HeldRows
		case *exec.GroupAgg:
			st.GroupRows += s.HeldRows
		case *exec.ParallelGroupAgg:
			st.Pipelines++
			st.Workers += x.Workers()
			st.GroupRows += s.HeldRows
		}
	})
	return st
}

// AttachOpSpans mirrors a drained operator tree under parent as one
// synthetic trace span per operator, carrying the operator's OpStats
// (rows out, batches, max batch, held rows, inclusive time). This is
// the bridge between the executor's counters and the tracer: a traced
// query's span tree and EXPLAIN ANALYZE are the same data, and
// RenderOpSpans formats either. A nil parent is a no-op.
func AttachOpSpans(parent *trace.Span, op exec.Operator) {
	AttachOpSpansEst(parent, op, nil)
}

// AttachOpSpansEst is AttachOpSpans with plan-time row estimates: any
// operator present in est carries its estimate on the span, so the
// rendered tree shows estimated next to actual rows. Build the map with
// OpEstimates; nil est attaches plain spans.
func AttachOpSpansEst(parent *trace.Span, op exec.Operator, est map[exec.Operator]float64) {
	if parent == nil {
		return
	}
	var rec func(p *trace.Span, o exec.Operator)
	rec = func(p *trace.Span, o exec.Operator) {
		st := o.Stats()
		sp := p.Start(o.String())
		sp.SetOpStats(st.RowsOut, st.Batches, st.MaxBatch, st.HeldRows, st.Ns)
		if e, ok := est[o]; ok {
			r := int64(e + 0.5)
			if r < 1 {
				r = 1
			}
			sp.SetEstRows(r)
		}
		for _, c := range o.Children() {
			rec(sp, c)
		}
	}
	rec(parent, op)
}

// RenderOpSpans formats an operator span tree (the children attached
// by AttachOpSpans) in EXPLAIN ANALYZE's layout.
func RenderOpSpans(root trace.SpanSnapshot) string {
	var b strings.Builder
	root.Walk(func(sp trace.SpanSnapshot, depth int) {
		line := strings.Repeat("   ", depth) + sp.Name
		fmt.Fprintf(&b, "%-44s rows=%d batches=%d maxbatch=%d", line, sp.Rows, sp.Batches, sp.MaxBatch)
		if sp.Held > 0 {
			fmt.Fprintf(&b, " held=%d", sp.Held)
		}
		if sp.EstRows > 0 {
			fmt.Fprintf(&b, " est=%d", sp.EstRows)
		}
		fmt.Fprintf(&b, " time=%s\n", time.Duration(sp.DurNS).Round(time.Microsecond))
	})
	return b.String()
}

// ExplainAnalyze compiles the plan, drains it under ctx, and renders
// the physical tree with actual per-operator counters:
//
//	hashjoin[ouid=uid]              rows=60 batches=1 maxbatch=60 held=20 time=0s
//	   scan(orders)                 rows=60 batches=1 maxbatch=60 time=0s
//	   scan(users)                  rows=20 batches=1 maxbatch=20 time=0s
//
// The rendering goes through the same span tree the tracer builds for
// live queries (AttachOpSpans), so `.trace` output and EXPLAIN ANALYZE
// can never drift apart.
func ExplainAnalyze(ctx context.Context, n Node) (string, error) {
	return ExplainAnalyzeCat(ctx, n, nil)
}

// ExplainAnalyzeCat is ExplainAnalyze with a planner catalog: per-span
// `est=` annotations come from the catalog's statistics, so the output
// shows estimated next to actual rows — why the plan was picked and
// how far the guess was off.
func ExplainAnalyzeCat(ctx context.Context, n Node, cat *Catalog) (string, error) {
	op, err := CompileDOP(n, ChooseDOP(n))
	if err != nil {
		return "", err
	}
	est := OpEstimates(n, op, cat)
	if _, err := exec.Count(ctx, op); err != nil {
		return "", err
	}
	root := trace.NewRoot("analyze")
	AttachOpSpansEst(root, op, est)
	root.End()
	snap := root.Snapshot()
	if len(snap.Children) == 0 {
		return "", nil
	}
	return RenderOpSpans(snap.Children[0]), nil
}
