package plan

import (
	"slices"

	"xst/internal/table"
)

// The optimizer applies rewrite rules bottom-up to a fixed point. All
// rules preserve the result multiset; TestOptimizePreservesResults
// verifies this on randomized plans.

// Optimize rewrites the plan to a fixed point of the rule set.
func Optimize(n Node) Node {
	for {
		rewritten, changed := rewrite(n)
		if !changed {
			return rewritten
		}
		n = rewritten
	}
}

func rewrite(n Node) (Node, bool) {
	changed := false
	n = withChildren(n, func(k Node) Node {
		k, c := rewrite(k)
		changed = changed || c
		return k
	})
	switch x := n.(type) {
	case *Select:
		if out, ok := mergeSelects(x); ok {
			return out, true
		}
		if out, ok := pushSelectBelowJoin(x); ok {
			return out, true
		}
		if out, ok := pushSelectBelowProject(x); ok {
			return out, true
		}
	case *Project:
		if out, ok := collapseProjects(x); ok {
			return out, true
		}
		if out, ok := pruneJoinColumns(x); ok {
			return out, true
		}
	}
	return n, changed
}

// mergeSelects flattens Select(Select(x, p), q) into Select(x, q ∧ p):
// restriction composition.
func mergeSelects(s *Select) (Node, bool) {
	inner, ok := s.Child.(*Select)
	if !ok {
		return nil, false
	}
	preds := And{}
	for _, p := range []Pred{s.Pred, inner.Pred} {
		if a, ok := p.(And); ok {
			preds = append(preds, a...)
		} else {
			preds = append(preds, p)
		}
	}
	return &Select{Child: inner.Child, Pred: preds}, true
}

// pushSelectBelowJoin moves a selection whose columns all come from one
// join side onto that side. Conjunctions split: each conjunct moves
// independently if it can.
func pushSelectBelowJoin(s *Select) (Node, bool) {
	j, ok := s.Child.(*Join)
	if !ok {
		return nil, false
	}
	lsch, rsch := j.Left.Schema(), j.Right.Schema()
	conjuncts, isAnd := s.Pred.(And)
	if !isAnd {
		conjuncts = And{s.Pred}
	}
	var toLeft, toRight, stay And
	for _, p := range conjuncts {
		switch {
		case hasCols(lsch, p.Cols()):
			toLeft = append(toLeft, p)
		case hasCols(rsch, p.Cols()):
			toRight = append(toRight, p)
		default:
			stay = append(stay, p)
		}
	}
	if len(toLeft) == 0 && len(toRight) == 0 {
		return nil, false
	}
	left, right := j.Left, j.Right
	if len(toLeft) > 0 {
		left = &Select{Child: left, Pred: simplify(toLeft)}
	}
	if len(toRight) > 0 {
		right = &Select{Child: right, Pred: simplify(toRight)}
	}
	var out Node = &Join{Left: left, Right: right, LeftCol: j.LeftCol, RightCol: j.RightCol}
	if len(stay) > 0 {
		out = &Select{Child: out, Pred: simplify(stay)}
	}
	return out, true
}

// pushSelectBelowProject swaps Select(Project(x)) into Project(Select(x))
// when the projection keeps every column the predicate reads — selection
// on the smaller input is cheaper and unlocks further pushdown.
func pushSelectBelowProject(s *Select) (Node, bool) {
	p, ok := s.Child.(*Project)
	if !ok {
		return nil, false
	}
	if !hasCols(p.Child.Schema(), s.Pred.Cols()) {
		return nil, false
	}
	return &Project{
		Child: &Select{Child: p.Child, Pred: s.Pred},
		Cols:  p.Cols,
	}, true
}

// collapseProjects merges Project(Project(x)).
func collapseProjects(p *Project) (Node, bool) {
	inner, ok := p.Child.(*Project)
	if !ok {
		return nil, false
	}
	return &Project{Child: inner.Child, Cols: p.Cols}, true
}

// pruneJoinColumns narrows a join's inputs to the columns the projection
// (plus the join keys) actually needs — 𝔇-pushdown. Each side keeps its
// own key and the columns the projection reads from it, found by their
// names in the join's output, so the right key id keeps no left id. If
// dropping a left column would rename a right one the projection reads
// (users.id is id once no left id is left), the left keeps its columns
// named like the kept right ones, and the rule gives up if that does
// not help.
func pruneJoinColumns(p *Project) (Node, bool) {
	j, ok := p.Child.(*Join)
	if !ok {
		return nil, false
	}
	// Only prune when the inner nodes are not already projections
	// (avoid rewrite loops).
	_, lp := j.Left.(*Project)
	_, rp := j.Right.(*Project)
	if lp || rp {
		return nil, false
	}
	lsch, rsch := j.Left.Schema(), j.Right.Schema()
	need := map[string]bool{"<" + j.LeftCol: true, ">" + j.RightCol: true}
	for _, c := range p.Cols {
		need[joinSource(lsch, rsch, c)] = true
	}
	keep := func(side string, sch table.Schema) table.Schema {
		var cols []string
		for _, c := range sch.Cols {
			if need[side+c] {
				cols = append(cols, c)
			}
		}
		return table.Schema{Name: sch.Name, Cols: cols}
	}
	l, r := keep("<", lsch), keep(">", rsch)
	for try := 0; !sameSources(p.Cols, l, r, lsch, rsch); try++ {
		if try > 0 {
			return nil, false
		}
		for _, c := range r.Cols {
			need["<"+c] = true
		}
		l = keep("<", lsch)
	}
	if len(l.Cols) == len(lsch.Cols) && len(r.Cols) == len(rsch.Cols) {
		return nil, false
	}
	return &Project{
		Child: &Join{
			Left:    &Project{Child: j.Left, Cols: l.Cols},
			Right:   &Project{Child: j.Right, Cols: r.Cols},
			LeftCol: j.LeftCol, RightCol: j.RightCol,
		},
		Cols: p.Cols,
	}, true
}

// joinSource names the input column that output column c of a join of l
// and r comes from: "<" and its name on the left, ">" and its name on the
// right, or "" when there is none.
func joinSource(l, r table.Schema, c string) string {
	switch i := slices.Index(table.JoinSchema(l, r).Cols, c); {
	case i < 0:
		return ""
	case i < len(l.Cols):
		return "<" + l.Cols[i]
	default:
		return ">" + r.Cols[i-len(l.Cols)]
	}
}

// sameSources reports whether each of cols comes from the same input
// column in a join of l and r as in one of l0 and r0.
func sameSources(cols []string, l, r, l0, r0 table.Schema) bool {
	for _, c := range cols {
		if joinSource(l, r, c) != joinSource(l0, r0, c) {
			return false
		}
	}
	return true
}

func simplify(a And) Pred {
	if len(a) == 1 {
		return a[0]
	}
	return a
}
