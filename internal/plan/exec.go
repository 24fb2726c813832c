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
// (internal/exec) through one lowering at any degree of parallelism,
// one worker being the serial tree. Every node compiles to a batch
// iterator, so the only full materializations anywhere in a run are the
// hash-join build side, the sort buffer, and the aggregate's
// accumulator tables — ExecStats.PeakIntermediateRows verifies nothing
// else ever holds more than one batch. The pre-streaming executor
// survives only as the test oracle in materialize_test.go.

// ExecStats reports physical work done by one execution.
type ExecStats struct {
	// RowsScanned counts rows read from base tables.
	RowsScanned int
	// RowsJoined counts rows emitted by join operators.
	RowsJoined int
	// Pipelines counts one-worker leaves (Scan, IndexScan) and
	// fan-outs (Gather, ParallelGroupAgg); the materialized executor
	// counts compiled single-table pipelines.
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
	// Workers counts the workers of the plan's fan-outs; 0 for a tree
	// that runs on one.
	Workers int
}

// Compile lowers a logical plan to a streaming operator tree on one
// worker: CompileDOP(n, 1).
func Compile(n Node) (exec.Operator, error) { return CompileDOP(n, 1) }

// CompileDOP lowers a logical plan to a streaming operator tree with up
// to dop workers per pipeline; at any dop it answers the same rows, in
// an order that may differ. Every join builds its right input, the side
// ChooseJoinSides picked, so lowering makes no cost decision of its
// own; join inputs with colliding column names are rejected rather than
// silently misresolved. The returned tree is single-use: compile a
// fresh one per execution.
func CompileDOP(n Node, dop int) (exec.Operator, error) { return gathered(n, max(dop, 1), nil) }

// gathered lowers n at width dop into one stream, gathering its
// workers if there are several.
func gathered(n Node, dop int, need []bool) (exec.Operator, error) {
	p, err := lower(n, dop, need)
	if err != nil || p.ws == nil {
		return p.op, err
	}
	return exec.NewGather(p.ws, p.aux...), nil
}

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

// pipe is a plan lowered at some width: the one operator chain op, or
// one chain per worker, ws, with the shared operators the workers
// depend on (hash builds), which whoever gathers them opens first.
type pipe struct {
	op      exec.Operator
	ws, aux []exec.Operator
}

// schema is the output schema every chain shares.
func (p *pipe) schema() table.Schema {
	if p.ws == nil {
		return p.op.OutSchema()
	}
	return p.ws[0].OutSchema()
}

// wrap stacks f's operator on every chain.
func (p *pipe) wrap(f func(exec.Operator) exec.Operator) {
	if p.ws == nil {
		p.op = f(p.op)
	}
	for i, w := range p.ws {
		p.ws[i] = f(w)
	}
}

// close releases every operator, on a lowering error's unwind.
func (p *pipe) close() {
	if p.op != nil {
		p.op.Close()
	}
	for _, op := range append(p.ws, p.aux...) {
		op.Close()
	}
}

// lower lowers n at width dop for consumers that read the positions
// need marks of its output (nil: all; see need.go). A scan fans out to
// dop morsel workers, one being the plain Scan, and restricts,
// projections, renames and join probes stack on each worker. A join
// whose probe runs on one worker builds on one. Index and Source leaves
// run on one worker. A group-by takes its input's workers as partial
// aggregates; sort, limit and distinct gather them. Below an operator
// that stacks on each worker, a breaker runs on one (perWorker).
func lower(n Node, dop int, need []bool) (pipe, error) {
	var child Node
	switch x := n.(type) {
	case *Scan:
		if dop == 1 {
			return pipe{op: leaf(exec.NewScan(x.Table, need))}, nil
		}
		src := x.Table.NewMorselSource()
		ws := make([]exec.Operator, dop)
		for i := range ws {
			ws[i] = leaf(exec.NewMorselScan(src, need))
		}
		return pipe{ws: ws}, nil
	case *IndexAccess:
		op, err := indexScan(x, need)
		return pipe{op: op}, err
	case *Source:
		op, err := x.New()
		return pipe{op: op}, err
	case *Join:
		return lowerJoin(x, dop, need)
	case *Distinct:
		return lowerBreaker(x, x.Child, dop, need)
	case *Sort:
		return lowerBreaker(x, x.Child, dop, need)
	case *Limit:
		return lowerBreaker(x, x.Child, dop, need)
	case *Select:
		child = x.Child
	case *Project:
		child = x.Child
	case *Rename:
		child = x.Child
	case *GroupBy:
		child = x.Child
	default:
		return pipe{}, fmt.Errorf("plan: cannot compile %T", n)
	}
	p, err := lower(child, perWorker(child, dop), needBelow(n, need))
	if err == nil {
		err = stack(n, &p)
	}
	if err != nil {
		p.close()
		return pipe{}, err
	}
	return p, nil
}

// perWorker is the width child lowers at below an operator that stacks
// on each worker: a pipeline breaker there runs on one.
func perWorker(child Node, dop int) int {
	switch child.(type) {
	case *GroupBy, *Distinct, *Sort, *Limit:
		return 1
	}
	return dop
}

// stack lowers a single-input node n onto its lowered input p.
func stack(n Node, p *pipe) error {
	sch := p.schema()
	switch x := n.(type) {
	case *Select:
		// One Restrict per worker, each owning its output scratch; the
		// filter is read-only and shared.
		filter, name := CompilePred(x.Pred, sch), x.Pred.String()
		p.wrap(func(w exec.Operator) exec.Operator {
			return exec.NewStage(&exec.Restrict{Filter: filter, Name: name}, w)
		})
	case *Project:
		idx := make([]int, len(x.Cols))
		for i, c := range x.Cols {
			var err error
			if idx[i], err = colIndex(sch, c, "project column"); err != nil {
				return err
			}
		}
		p.wrap(func(w exec.Operator) exec.Operator { return exec.NewStage(&exec.Project{Cols: idx}, w) })
	case *Rename:
		if got, want := sch.Arity(), len(x.Cols); got != want {
			return fmt.Errorf("plan: rename arity %d over child arity %d", want, got)
		}
		p.wrap(func(w exec.Operator) exec.Operator { return exec.NewStage(&exec.Rename{Cols: x.Cols}, w) })
	case *GroupBy:
		key, aggs, err := groupCols(x, sch)
		if err != nil {
			return err
		}
		if p.ws == nil {
			p.op = exec.NewGroupAgg(p.op, key, x.Groups, aggs...)
		} else {
			*p = pipe{op: exec.NewParallelGroupAgg(p.ws, p.aux, key, x.Groups, x.Rows, aggs...)}
		}
	}
	return nil
}

// lowerBreaker lowers a sort, limit or distinct over its input, child,
// gathered into one stream.
func lowerBreaker(n, child Node, dop int, need []bool) (pipe, error) {
	in, err := gathered(child, dop, needBelow(n, need))
	if err != nil {
		return pipe{}, err
	}
	switch x := n.(type) {
	case *Distinct:
		return pipe{op: exec.NewStage(&exec.Distinct{}, in)}, nil
	case *Sort:
		idx, err := colIndex(in.OutSchema(), x.Col, "sort column")
		if err != nil {
			in.Close()
			return pipe{}, err
		}
		return pipe{op: exec.NewSort(in, idx, x.Desc)}, nil
	default:
		return pipe{op: exec.NewLimit(in, n.(*Limit).N)}, nil
	}
}

// lowerJoin lowers a join at width dop: the left input probes, the right
// builds.
func lowerJoin(x *Join, dop int, need []bool) (pipe, error) {
	pneed, bneed := needOfJoin(x, need)
	probe, err := lower(x.Left, perWorker(x.Left, dop), pneed)
	if err != nil {
		return pipe{}, err
	}
	if probe.ws == nil {
		dop = 1
	}
	build, err := lower(x.Right, perWorker(x.Right, dop), bneed)
	var pcol, bcol int
	if err == nil {
		pcol, err = colIndex(probe.schema(), x.LeftCol, "join column")
	}
	if err == nil {
		bcol, err = colIndex(build.schema(), x.RightCol, "join column")
	}
	if err != nil {
		probe.close()
		build.close()
		return pipe{}, err
	}
	if probe.ws == nil {
		return pipe{op: leaf(exec.NewHashJoin(probe.op, build.op, pcol, bcol, x.BuildRows))}, nil
	}
	builders := build.ws
	if builders == nil {
		builders = []exec.Operator{build.op}
	}
	hb := exec.NewHashBuild(builders, bcol, x.BuildRows)
	probe.wrap(func(w exec.Operator) exec.Operator { return leaf(exec.NewProbeJoin(w, hb, pcol)) })
	probe.aux = append(append(build.aux, hb), probe.aux...)
	return probe, nil
}

// indexScan lowers an index access path.
func indexScan(x *IndexAccess, need []bool) (exec.Operator, error) {
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
}

// groupCols resolves a group-by's key and aggregate columns in its
// input's schema.
func groupCols(x *GroupBy, sch table.Schema) (int, []exec.Agg, error) {
	key, err := colIndex(sch, x.Key, "group key")
	if err != nil {
		return 0, nil, err
	}
	aggs := make([]exec.Agg, len(x.Aggs))
	for i, a := range x.Aggs {
		aggs[i] = exec.Agg{Kind: a.Kind}
		if a.Kind != exec.AggCount {
			if aggs[i].Col, err = colIndex(sch, a.Col, "aggregate column"); err != nil {
				return 0, nil, err
			}
		}
	}
	return key, aggs, nil
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
		case *exec.Scan, *exec.IndexScan:
			st.Pipelines++
			st.RowsScanned += s.RowsIn
		case *exec.MorselScan:
			st.RowsScanned += s.RowsIn
		case *exec.Gather:
			// Its HeldRows is the peak rows in flight across the fan-in.
			st.Pipelines++
			st.Workers += x.Workers()
			if s.HeldRows > st.PeakIntermediateRows {
				st.PeakIntermediateRows = s.HeldRows
			}
		case *exec.HashJoin, *exec.HashBuild, *exec.ProbeJoin:
			st.RowsJoined += s.RowsOut // a build emits nothing
			st.BuildRows += s.HeldRows // a probe holds nothing
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
