package plan

// Bottom-up join ordering: a maximal subtree of equi-joins is flattened
// into its base units and predicate edges, then rebuilt greedily by
// estimated cardinality — start from the cheapest pair, repeatedly
// attach the connected unit whose join yields the fewest estimated
// rows. This is the System-R greedy restricted to left-deep trees; with
// three or more units it routinely beats the parse order, and the
// rebuilt tree is wrapped in a projection restoring the original column
// order so the rewrite is observationally pure.
//
// The pass deliberately bails (keeping the parse order) whenever a
// reorder could change meaning, not just cost:
//   - fewer than three units (a pair is fully handled by build-side
//     selection),
//   - any column name appearing in two units (JoinSchema would qualify
//     collisions differently under a different shape),
//   - a predicate that does not resolve to exactly two distinct units,
//   - a non-tree join graph (an unused edge cannot be re-applied: the
//     plan language has no column-to-column residual filter).

// joinEdge is one equi-join predicate between two units.
type joinEdge struct {
	a, b       int    // unit indices
	aCol, bCol string // join columns on each side
	used       bool
}

// orderJoins walks the plan and reorders every maximal join subtree.
func orderJoins(n Node, cat *Catalog) Node {
	if j, ok := n.(*Join); ok {
		return reorderJoinTree(j, cat)
	}
	return withChildren(n, func(k Node) Node { return orderJoins(k, cat) })
}

// reorderJoinTree rebuilds one maximal join subtree by estimated
// cardinality, or returns it untouched when ineligible.
func reorderJoinTree(j *Join, cat *Catalog) Node {
	units, edges, ok := flattenJoins(j, cat)
	if !ok || len(units) < 3 {
		return keepShape(j, units, edges)
	}
	// Unit column names must be pairwise disjoint so any join shape
	// concatenates schemas without qualification.
	seen := map[string]bool{}
	for _, u := range units {
		for _, c := range u.Schema().Cols {
			if seen[c] {
				return keepShape(j, units, edges)
			}
			seen[c] = true
		}
	}
	// Resolve each edge's endpoints to unit indices.
	unitOf := func(col string) int {
		for i, u := range units {
			if u.Schema().Col(col) >= 0 {
				return i
			}
		}
		return -1
	}
	for i := range edges {
		edges[i].a = unitOf(edges[i].aCol)
		edges[i].b = unitOf(edges[i].bCol)
		if edges[i].a < 0 || edges[i].b < 0 || edges[i].a == edges[i].b {
			return keepShape(j, units, edges)
		}
	}
	if len(edges) != len(units)-1 {
		return keepShape(j, units, edges) // cyclic or disconnected graph
	}
	// Seed with the cheapest single edge.
	bestEdge, bestEst := -1, 0.0
	for i, e := range edges {
		cand := &Join{Left: units[e.a], Right: units[e.b], LeftCol: e.aCol, RightCol: e.bCol}
		if est := cat.Estimate(cand); bestEdge < 0 || est < bestEst {
			bestEdge, bestEst = i, est
		}
	}
	e := &edges[bestEdge]
	e.used = true
	in := map[int]bool{e.a: true, e.b: true}
	composite := Node(&Join{Left: units[e.a], Right: units[e.b], LeftCol: e.aCol, RightCol: e.bCol})
	// Greedily attach the connected unit with the cheapest result.
	for len(in) < len(units) {
		bestI, bestEst := -1, 0.0
		var bestJoin *Join
		for i := range edges {
			e := &edges[i]
			if e.used {
				continue
			}
			// Exactly one endpoint inside the composite → candidate
			// attachment; its column sits on the composite (left) side.
			var cCol, uCol string
			var unit int
			switch {
			case in[e.a] && !in[e.b]:
				cCol, uCol, unit = e.aCol, e.bCol, e.b
			case in[e.b] && !in[e.a]:
				cCol, uCol, unit = e.bCol, e.aCol, e.a
			default:
				continue
			}
			cand := &Join{Left: composite, Right: units[unit], LeftCol: cCol, RightCol: uCol}
			if est := cat.Estimate(cand); bestI < 0 || est < bestEst {
				bestI, bestEst, bestJoin = i, est, cand
			}
		}
		if bestI < 0 {
			return keepShape(j, units, edges) // defensive: disconnected
		}
		edges[bestI].used = true
		in[edges[bestI].a], in[edges[bestI].b] = true, true
		composite = bestJoin
	}
	for _, e := range edges {
		if !e.used {
			return keepShape(j, units, edges) // defensive: cycle
		}
	}
	// Restore the original output column order.
	return &Project{Child: composite, Cols: j.Schema().Cols}
}

// flattenJoins splits a join subtree into its non-join units (each
// recursively reordered) and its predicate edges, parse order
// preserved. ok is false when a unit column set overlaps a join column
// ambiguously — callers then keep the original shape.
func flattenJoins(n Node, cat *Catalog) (units []Node, edges []joinEdge, ok bool) {
	var rec func(Node) bool
	rec = func(n Node) bool {
		j, isJoin := n.(*Join)
		if !isJoin {
			units = append(units, orderJoins(n, cat))
			return true
		}
		if !rec(j.Left) || !rec(j.Right) {
			return false
		}
		edges = append(edges, joinEdge{aCol: j.LeftCol, bCol: j.RightCol})
		return true
	}
	return units, edges, rec(n)
}

// keepShape rebuilds the original join tree over the recursively
// reordered units, preserving this subtree's parse order. Units arrive
// in left-to-right flatten order, matching a fresh in-order walk.
func keepShape(j *Join, units []Node, edges []joinEdge) Node {
	pos := 0
	var rebuild func(Node) Node
	rebuild = func(n Node) Node {
		x, isJoin := n.(*Join)
		if !isJoin {
			u := units[pos]
			pos++
			return u
		}
		l := rebuild(x.Left)
		r := rebuild(x.Right)
		return &Join{Left: l, Right: r, LeftCol: x.LeftCol, RightCol: x.RightCol}
	}
	if len(units) == 0 {
		return j
	}
	return rebuild(j)
}
