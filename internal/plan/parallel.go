package plan

import (
	"fmt"
	"runtime"

	"xst/internal/exec"
	"xst/internal/table"
)

// Parallel compilation: the cost model picks a degree of parallelism
// per plan (small inputs stay serial — fan-out costs more than it
// saves), and CompileDOP lowers the parallelizable spine of the plan
// (scan → select → project → join probe) onto N worker subtrees behind
// an exec.Gather, with hash-join builds partitioned across workers
// (exec.HashBuild) and aggregates folded from per-worker partials
// (exec.ParallelGroupAgg). Pipeline breakers that stay serial (Sort,
// Distinct, Limit) sit above the Gather.

// ParallelThreshold is the estimated base-input row count below which
// plans stay serial. Tests may lower it to force parallel plans on
// small fixtures.
var ParallelThreshold = 16384

// MaxDOP caps the degree of parallelism; 0 means min(GOMAXPROCS, 8).
var MaxDOP = 0

// maxDOP resolves the MaxDOP default.
func maxDOP() int {
	if MaxDOP > 0 {
		return MaxDOP
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ChooseDOP picks the degree of parallelism for a plan: 1 (serial)
// unless the largest base table feeding it clears ParallelThreshold,
// then enough workers that each gets a meaningful share of pages,
// capped at MaxDOP.
func ChooseDOP(n Node) int {
	rows := largestScanRows(n)
	if rows < ParallelThreshold {
		return 1
	}
	d := maxDOP()
	// Each worker should get at least a quarter-threshold of rows;
	// fanning out wider than the data just burns goroutines.
	perWorker := ParallelThreshold / 4
	if perWorker < 1 {
		perWorker = 1
	}
	if byWork := rows / perWorker; byWork < d {
		d = byWork
	}
	if d < 2 {
		return 1
	}
	return d
}

// largestScanRows returns the row count of the biggest base table in
// the plan — the driver of parallel benefit, since morsels are dealt
// from base-table pages.
func largestScanRows(n Node) int {
	switch x := n.(type) {
	case *Scan:
		return x.Table.Count()
	case *IndexAccess:
		// An index leaf feeds only its estimated matches; a pruned
		// probe should not trigger fan-out on the base table's size.
		return int(x.Est)
	}
	most := 0
	withChildren(n, func(k Node) Node {
		most = max(most, largestScanRows(k))
		return k
	})
	return most
}

// CompileDOP lowers a logical plan to a streaming operator tree with up
// to dop parallel workers per pipeline. dop ≤ 1, or a plan shape with
// no parallelizable spine, degrades to the serial Compile tree — the
// result is always the same rows (order-insensitive; interleaving
// across workers is arbitrary).
func CompileDOP(n Node, dop int) (exec.Operator, error) {
	if dop <= 1 {
		return Compile(n)
	}
	switch x := n.(type) {
	case *GroupBy:
		ws, aux, ok, err := compileWorkers(x.Child, dop, needBelow(x, nil))
		if err != nil {
			return nil, err
		}
		if !ok {
			return Compile(n)
		}
		sch := ws[0].OutSchema()
		key, err := colIndex(sch, x.Key, "group key")
		if err != nil {
			closeOps(ws, aux)
			return nil, err
		}
		aggs := make([]exec.Agg, len(x.Aggs))
		for i, a := range x.Aggs {
			aggs[i] = exec.Agg{Kind: a.Kind}
			if a.Kind != exec.AggCount {
				if aggs[i].Col, err = colIndex(sch, a.Col, "aggregate column"); err != nil {
					closeOps(ws, aux)
					return nil, err
				}
			}
		}
		return exec.NewParallelGroupAgg(ws, aux, key, aggs...), nil
	case *Distinct:
		child, err := CompileDOP(x.Child, dop)
		if err != nil {
			return nil, err
		}
		return exec.NewStage(&exec.Distinct{}, child), nil
	case *Sort:
		child, err := CompileDOP(x.Child, dop)
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
		child, err := CompileDOP(x.Child, dop)
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(child, x.N), nil
	default:
		ws, aux, ok, err := compileWorkers(n, dop, nil)
		if err != nil {
			return nil, err
		}
		if !ok {
			return Compile(n)
		}
		return exec.NewGather(ws, aux...), nil
	}
}

// closeOps closes every operator in the given chains, releasing
// half-built workers on a compile-error unwind.
func closeOps(groups ...[]exec.Operator) {
	for _, ops := range groups {
		for _, op := range ops {
			op.Close()
		}
	}
}

// compileWorkers lowers the parallelizable spine of a plan into dop
// per-worker operator chains plus their shared aux dependencies
// (HashBuilds, ordered dependencies-first so an enclosing
// Gather/ParallelGroupAgg can open them in slice order). ok is false
// for shapes the spine cannot absorb (sorts, nested aggregates, …):
// the caller falls back to the serial tree. need marks the positions
// of n's output its consumers read (nil: all; see need.go).
func compileWorkers(n Node, dop int, need []bool) (workers, aux []exec.Operator, ok bool, err error) {
	switch x := n.(type) {
	case *Scan:
		src := x.Table.NewMorselSource()
		workers = make([]exec.Operator, dop)
		for i := range workers {
			workers[i] = leaf(exec.NewMorselScan(src, need))
		}
		return workers, nil, true, nil
	case *Select:
		ws, aux, ok, err := compileWorkers(x.Child, dop, needBelow(x, need))
		if err != nil || !ok {
			return nil, nil, ok, err
		}
		pred, sch := x.Pred, ws[0].OutSchema()
		for i, w := range ws {
			// One Stage per worker: each owns its output scratch. Pred
			// evaluation is read-only and shared safely.
			ws[i] = exec.NewStage(&exec.Restrict{
				Pred: func(r table.Row) bool { return pred.Eval(sch, r) },
				Name: pred.String(),
			}, w)
		}
		return ws, aux, true, nil
	case *Project:
		ws, aux, ok, err := compileWorkers(x.Child, dop, needBelow(x, need))
		if err != nil || !ok {
			return nil, nil, ok, err
		}
		sch := ws[0].OutSchema()
		idx := make([]int, len(x.Cols))
		for i, c := range x.Cols {
			if idx[i], err = colIndex(sch, c, "project column"); err != nil {
				closeOps(ws, aux)
				return nil, nil, false, err
			}
		}
		for i, w := range ws {
			// A fresh exec.Project per worker: its row buffer is scratch.
			ws[i] = exec.NewStage(&exec.Project{Cols: append([]int(nil), idx...)}, w)
		}
		return ws, aux, true, nil
	case *Rename:
		// ChooseJoinSides puts one above a swapped join whose inputs share
		// column names; relabelling is per worker, like a projection.
		ws, aux, ok, err := compileWorkers(x.Child, dop, needBelow(x, need))
		if err != nil || !ok {
			return nil, nil, ok, err
		}
		if got, want := ws[0].OutSchema().Arity(), len(x.Cols); got != want {
			closeOps(ws, aux)
			return nil, nil, false, fmt.Errorf("plan: rename arity %d over child arity %d", want, got)
		}
		for i, w := range ws {
			ws[i] = exec.NewRename(w, x.Cols)
		}
		return ws, aux, true, nil
	case *Join:
		// The right input builds; ChooseJoinSides has already put the
		// smaller one there.
		pneed, bneed := needOfJoin(x, need)
		pw, paux, pok, err := compileWorkers(x.Left, dop, pneed)
		if err != nil {
			return nil, nil, false, err
		}
		if !pok {
			// A join whose probe side cannot fan out stays serial.
			return nil, nil, false, nil
		}
		// Build side: partitioned parallel build when its own spine fans
		// out, else one serial builder chain.
		bw, baux, bok, err := compileWorkers(x.Right, dop, bneed)
		if err != nil {
			closeOps(pw, paux)
			return nil, nil, false, err
		}
		if !bok {
			serial, err := compile(x.Right, bneed)
			if err != nil {
				closeOps(pw, paux)
				return nil, nil, false, err
			}
			bw, baux = []exec.Operator{serial}, nil
		}
		pcol, err := colIndex(pw[0].OutSchema(), x.LeftCol, "join column")
		if err != nil {
			closeOps(pw, paux, bw, baux)
			return nil, nil, false, err
		}
		bcol, err := colIndex(bw[0].OutSchema(), x.RightCol, "join column")
		if err != nil {
			closeOps(pw, paux, bw, baux)
			return nil, nil, false, err
		}
		hb := exec.NewHashBuild(bw, bcol)
		for i, w := range pw {
			pw[i] = leaf(exec.NewProbeJoin(w, hb, pcol))
		}
		aux = append(aux, baux...)
		aux = append(aux, hb)
		aux = append(aux, paux...)
		return pw, aux, true, nil
	default:
		return nil, nil, false, nil
	}
}
