package plan

import (
	"xst/internal/exec"
	"xst/internal/table"
)

// Needed positions: lowering tells every scan which positions of its
// rows the operators above it read — restrict predicates, project
// lists, join and group keys, aggregate inputs, the sort column —
// so the page kernel (table.PageBatch.Decode) skips the encoded bytes
// of the others and leaves their columns ColAbsent. A mask is a []bool
// over a node's output schema; nil means every position, which is what
// the root of a plan needs, since its rows are the result.

// needOnly marks exactly the named columns of sch.
func needOnly(sch table.Schema, cols ...string) []bool {
	return needAlso(make([]bool, sch.Arity()), sch, cols...)
}

// needAlso returns need with the named columns of sch marked as well,
// in place: callers pass a mask they own. An unknown name is left to
// colIndex, which reports it.
func needAlso(need []bool, sch table.Schema, cols ...string) []bool {
	if need == nil {
		return nil
	}
	for _, c := range cols {
		if i := sch.Col(c); i >= 0 {
			need[i] = true
		}
	}
	return need
}

// needBelow returns the positions a single-input node reads of its
// child's output, given the positions need its own consumers read of
// its output.
func needBelow(n Node, need []bool) []bool {
	own := func() []bool { return append([]bool(nil), need...) } // nil stays nil
	switch x := n.(type) {
	case *Select:
		return needAlso(own(), x.Child.Schema(), x.Pred.Cols()...)
	case *Project:
		return needOnly(x.Child.Schema(), x.Cols...)
	case *Sort:
		return needAlso(own(), x.Child.Schema(), x.Col)
	case *GroupBy:
		cols := []string{x.Key}
		for _, a := range x.Aggs {
			if a.Kind != exec.AggCount {
				cols = append(cols, a.Col)
			}
		}
		return needOnly(x.Child.Schema(), cols...)
	case *Limit, *Rename:
		return need // positional pass-through
	default:
		return nil // Distinct compares whole rows
	}
}

// needOfJoin splits the positions read of a join's output (left
// columns then right columns) into the two inputs' masks, each with its
// join key.
func needOfJoin(j *Join, need []bool) (left, right []bool) {
	if need == nil {
		return nil, nil
	}
	lsch, rsch := j.Left.Schema(), j.Right.Schema()
	la := lsch.Arity()
	left = needAlso(append([]bool(nil), need[:la]...), lsch, j.LeftCol)
	right = needAlso(append([]bool(nil), need[la:]...), rsch, j.RightCol)
	return left, right
}
