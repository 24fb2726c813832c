package plan

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
// (plus the join keys) actually needs — 𝔇-pushdown.
func pruneJoinColumns(p *Project) (Node, bool) {
	j, ok := p.Child.(*Join)
	if !ok {
		return nil, false
	}
	lsch, rsch := j.Left.Schema(), j.Right.Schema()
	need := map[string]bool{j.LeftCol: true, j.RightCol: true}
	for _, c := range p.Cols {
		need[c] = true
	}
	keep := func(all []string) []string {
		var out []string
		for _, c := range all {
			if need[c] {
				out = append(out, c)
			}
		}
		return out
	}
	lKeep := keep(lsch.Cols)
	rKeep := keep(rsch.Cols)
	if len(lKeep) == len(lsch.Cols) && len(rKeep) == len(rsch.Cols) {
		return nil, false
	}
	// Only prune when something is actually dropped and the inner nodes
	// are not already projections (avoid rewrite loops).
	if _, ok := j.Left.(*Project); ok {
		return nil, false
	}
	if _, ok := j.Right.(*Project); ok {
		return nil, false
	}
	return &Project{
		Child: &Join{
			Left:    &Project{Child: j.Left, Cols: lKeep},
			Right:   &Project{Child: j.Right, Cols: rKeep},
			LeftCol: j.LeftCol, RightCol: j.RightCol,
		},
		Cols: p.Cols,
	}, true
}

func simplify(a And) Pred {
	if len(a) == 1 {
		return a[0]
	}
	return a
}
