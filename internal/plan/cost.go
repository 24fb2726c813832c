package plan

import (
	"slices"

	"xst/internal/stats"
)

// One cost model. Catalog.Estimate predicts the output cardinality of
// every plan node: measured distinct counts and histograms where the
// catalog holds statistics for a column, the System-R constants below
// where it does not. A nil catalog, or one without statistics, is
// therefore the constant model rather than a second model, and every
// cost-based choice — join order, build side, access path — reads this
// one estimator. The executor builds its hash table on the RIGHT child,
// so ChooseJoinSides puts the smaller estimated input there.

// Selectivity guesses per predicate shape, the classic System-R
// constants: equality is selective, ranges moderate.
const (
	selEq    = 0.1
	selRange = 0.3
	selOther = 0.5
)

// DefaultSelectivity is the System-R selectivity of p: the fraction of
// rows the planner assumes p keeps when no statistics describe its
// columns. The federation's fragment estimates use it too.
func DefaultSelectivity(p Pred) float64 {
	switch x := p.(type) {
	case Cmp:
		switch x.Op {
		case Eq:
			return selEq
		case Lt, Le, Gt, Ge:
			return selRange
		default:
			return selOther
		}
	case And:
		s := 1.0
		for _, q := range x {
			s *= DefaultSelectivity(q)
		}
		return s
	default:
		return selOther
	}
}

// Estimate predicts n's output cardinality, preferring the catalog's
// statistics and falling back, node by node, to exact base-table counts
// and the System-R constants. The receiver may be nil.
func (c *Catalog) Estimate(n Node) float64 {
	switch x := n.(type) {
	case *Scan:
		if c != nil {
			if ts, ok := c.Stats[x.Table.Schema().Name]; ok {
				return float64(ts.Rows)
			}
		}
		return float64(x.Table.Count())
	case *IndexAccess:
		return x.Est
	case *Select:
		return c.Estimate(x.Child) * c.selOf(x.Child, x.Pred)
	case *Project:
		return c.Estimate(x.Child)
	case *Join:
		l, r := c.Estimate(x.Left), c.Estimate(x.Right)
		// With distinct counts on the join keys, the standard
		// |L|·|R| / max(d(L.key), d(R.key)); without them, keys near-unique
		// on one side, which makes the join about the larger input.
		if d := max(c.distinct(x.Left, x.LeftCol), c.distinct(x.Right, x.RightCol)); d > 0 {
			return l * r / float64(d)
		}
		return max(l, r)
	case *Distinct:
		return c.Estimate(x.Child)
	case *Sort:
		return c.Estimate(x.Child)
	case *Limit:
		return min(c.Estimate(x.Child), float64(x.N))
	case *GroupBy:
		// One row per distinct key: the measured count, else the
		// equality selectivity's guess.
		est := c.Estimate(x.Child)
		if d := c.distinct(x.Child, x.Key); d > 0 {
			return min(est, float64(d))
		}
		return est * selEq
	case *Source:
		return x.Rows
	case *Rename:
		return c.Estimate(x.Child)
	default:
		return 1
	}
}

// columnStats resolves a column's statistics through selects, projects,
// renames and joins (by the column's position, whatever qualification a
// join gave a shared name) and index leaves to the scanned table; ok is
// false when the catalog has none.
func (c *Catalog) columnStats(n Node, col string) (stats.ColumnStats, bool) {
	switch x := n.(type) {
	case *Scan:
		if c == nil {
			return stats.ColumnStats{}, false
		}
		ts, ok := c.Stats[x.Table.Schema().Name]
		i := x.Table.Schema().Col(col)
		if !ok || i < 0 || i >= len(ts.Columns) {
			return stats.ColumnStats{}, false
		}
		return ts.Columns[i], true
	case *IndexAccess:
		return c.columnStats(&Scan{Table: x.Idx.Table}, col)
	case *Select:
		return c.columnStats(x.Child, col)
	case *Project:
		return c.columnStats(x.Child, col)
	case *Rename:
		if i, in := slices.Index(x.Cols, col), x.Child.Schema().Cols; i >= 0 && i < len(in) {
			return c.columnStats(x.Child, in[i])
		}
	case *Join:
		left := x.Left.Schema().Cols
		if i := x.Schema().Col(col); i >= len(left) {
			return c.columnStats(x.Right, x.Right.Schema().Cols[i-len(left)])
		} else if i >= 0 {
			return c.columnStats(x.Left, left[i])
		}
	}
	return stats.ColumnStats{}, false
}

// distinct is a column's measured distinct count; 0 when unknown.
func (c *Catalog) distinct(n Node, col string) int {
	cs, _ := c.columnStats(n, col)
	return cs.Distinct
}

// selOf estimates the fraction of child's rows p keeps: histograms and
// distinct counts for the columns the catalog has statistics on,
// DefaultSelectivity for the rest.
func (c *Catalog) selOf(child Node, p Pred) float64 {
	switch x := p.(type) {
	case Cmp:
		cs, ok := c.columnStats(child, x.Col)
		if !ok {
			return DefaultSelectivity(p)
		}
		// The derived combinations (Le as Less+Eq, Gt as 1-Less-Eq) can
		// drift just outside [0,1] at histogram edges; clamp them.
		switch x.Op {
		case Eq:
			return cs.SelectivityEq(x.Val)
		case Ne:
			return clampSel(1 - cs.SelectivityEq(x.Val))
		case Lt:
			return cs.SelectivityLess(x.Val)
		case Le:
			return clampSel(cs.SelectivityLess(x.Val) + cs.SelectivityEq(x.Val))
		case Ge:
			return clampSel(1 - cs.SelectivityLess(x.Val))
		case Gt:
			return clampSel(1 - cs.SelectivityLess(x.Val) - cs.SelectivityEq(x.Val))
		default:
			return DefaultSelectivity(p)
		}
	case And:
		// Independence assumption, clamped to [0, 1].
		s := 1.0
		for _, q := range x {
			s *= c.selOf(child, q)
		}
		return clampSel(s)
	default:
		return DefaultSelectivity(p)
	}
}

// clampSel bounds a selectivity to [0, 1].
func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// ChooseJoinSides puts the smaller estimated input of every join on its
// build (right) side. It is the only place a build side is decided:
// lowering builds the right input of whatever join it is given.
func ChooseJoinSides(n Node, cat *Catalog) Node {
	n = withChildren(n, func(k Node) Node { return ChooseJoinSides(k, cat) })
	if j, ok := n.(*Join); ok && cat.Estimate(j.Right) > cat.Estimate(j.Left) {
		return swapJoin(j)
	}
	return n
}

// swapJoin exchanges j's inputs under a projection that restores j's
// output columns, so the rewrite is observationally pure. The
// projection picks each column by its name in the swapped join; where
// the inputs share a name, JoinSchema qualifies the other copy after
// the swap, and a Rename puts j's names back.
func swapJoin(j *Join) Node {
	swapped := &Join{Left: j.Right, Right: j.Left, LeftCol: j.RightCol, RightCol: j.LeftCol}
	want, have := j.Schema().Cols, swapped.Schema().Cols
	// j's left columns are the last nl of the swapped join's.
	nl := j.Left.Schema().Arity()
	cols := append(append([]string(nil), have[len(have)-nl:]...), have[:len(have)-nl]...)
	var out Node = &Project{Child: swapped, Cols: cols}
	if !slices.Equal(cols, want) {
		out = &Rename{Child: out, Cols: want}
	}
	return out
}
