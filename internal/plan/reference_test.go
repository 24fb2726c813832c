package plan

import (
	"testing"

	"xst/internal/exec"
	"xst/internal/table"
)

// The constant cardinality model as it stood before Catalog.Estimate
// became the only estimator, kept verbatim (renamed) as the oracle for
// the no-statistics case: a nil catalog, or one without statistics,
// must estimate every node and choose every build side exactly as this
// did.

// refEstimateRows predicts the output cardinality of a plan node using
// exact base-table counts and standard selectivity constants.
func refEstimateRows(n Node) float64 {
	switch x := n.(type) {
	case *Scan:
		return float64(x.Table.Count())
	case *IndexAccess:
		return x.Est
	case *Select:
		return refEstimateRows(x.Child) * refPredSelectivity(x.Pred)
	case *Project:
		return refEstimateRows(x.Child)
	case *Join:
		l, r := refEstimateRows(x.Left), refEstimateRows(x.Right)
		// Equi-join estimate: |L|·|R| / max(distinct keys) ≈ the larger
		// side when keys are near-unique on one side.
		if l > r {
			return l
		}
		return r
	case *Distinct:
		return refEstimateRows(x.Child)
	case *Sort:
		return refEstimateRows(x.Child)
	case *Limit:
		est := refEstimateRows(x.Child)
		if n := float64(x.N); n < est {
			return n
		}
		return est
	case *GroupBy:
		// One row per distinct key; guess the equality selectivity.
		return refEstimateRows(x.Child) * selEq
	case *Source:
		return x.Rows
	case *Rename:
		return refEstimateRows(x.Child)
	default:
		return 1
	}
}

func refPredSelectivity(p Pred) float64 {
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
			s *= refPredSelectivity(q)
		}
		return s
	default:
		return selOther
	}
}

// refChooseJoinSides swaps every join's children so the smaller estimated
// input sits on the build (right) side. Output column ORDER changes with
// a swap, so this is applied only via OptimizeCost, whose contract is
// set-level (the result multiset of rows is preserved up to column
// permutation only when the caller projects; to stay safe, a swapped
// join is wrapped in a projection restoring the original column order).
func refChooseJoinSides(n Node) Node {
	switch x := n.(type) {
	case *Select:
		return &Select{Child: refChooseJoinSides(x.Child), Pred: x.Pred}
	case *Project:
		return &Project{Child: refChooseJoinSides(x.Child), Cols: x.Cols}
	case *Distinct:
		return &Distinct{Child: refChooseJoinSides(x.Child)}
	case *Sort:
		return &Sort{Child: refChooseJoinSides(x.Child), Col: x.Col, Desc: x.Desc}
	case *Limit:
		return &Limit{Child: refChooseJoinSides(x.Child), N: x.N}
	case *GroupBy:
		return &GroupBy{Child: refChooseJoinSides(x.Child), Key: x.Key, Aggs: x.Aggs}
	case *Join:
		left := refChooseJoinSides(x.Left)
		right := refChooseJoinSides(x.Right)
		if refEstimateRows(right) <= refEstimateRows(left) {
			return &Join{Left: left, Right: right, LeftCol: x.LeftCol, RightCol: x.RightCol}
		}
		// Swap and restore the original column order with a projection.
		swapped := &Join{
			Left: right, Right: left,
			LeftCol: x.RightCol, RightCol: x.LeftCol,
		}
		orig := &Join{Left: left, Right: right, LeftCol: x.LeftCol, RightCol: x.RightCol}
		return &Project{Child: swapped, Cols: orig.Schema().Cols}
	default:
		return n
	}
}

// referencePlans is every plan the oracle is checked over: the 24-query
// suite as written, rule-optimized and cost-optimized (the last carries
// index leaves), the plan_test, stream_test and breaker corpora, and the
// Source/Rename shapes a federation coordinator assembles.
func referencePlans(t *testing.T) []Node {
	queries, cat := differentialQueries(t)
	plans := append([]Node(nil), queries...)
	for _, q := range queries {
		plans = append(plans, Optimize(q), OptimizeCatalog(q, cat))
	}
	plans = append(plans, optimizePlans(t)...)
	plans = append(plans, streamPlans(t)...)
	plans = append(plans, breakerPlans(t)...)
	src := func(label string, rows float64, cols ...string) *Source {
		return &Source{Sch: table.Schema{Name: label, Cols: cols}, Rows: rows, Label: label}
	}
	return append(plans,
		&Join{Left: src("small", 10, "k", "v"), Right: src("large", 80, "k2", "w"), LeftCol: "k", RightCol: "k2"},
		&Join{Left: src("large", 80, "k", "v"), Right: src("small", 10, "k2", "w"), LeftCol: "k", RightCol: "k2"},
		&Rename{Child: &GroupBy{Child: src("partials", 300, "k", "count"), Key: "k",
			Aggs: []AggSpec{{Kind: exec.AggSum, Col: "count"}}}, Cols: []string{"k", "count"}},
	)
}

// walkNodes calls fn on n and every node below it.
func walkNodes(n Node, fn func(Node)) {
	fn(n)
	for _, k := range children(n) {
		walkNodes(k, fn)
	}
}

// TestEstimateWithoutStatsIsConstantModel: with no statistics the one
// estimator is the constant model node for node, and the one build-side
// chooser makes the constant model's choices.
func TestEstimateWithoutStatsIsConstantModel(t *testing.T) {
	nodes := 0
	for i, p := range referencePlans(t) {
		walkNodes(p, func(n Node) {
			nodes++
			want := refEstimateRows(n)
			if got := (*Catalog)(nil).Estimate(n); got != want {
				t.Fatalf("plan %d: nil catalog estimates %v at %v, oracle %v", i, got, n, want)
			}
			if got := (&Catalog{}).Estimate(n); got != want {
				t.Fatalf("plan %d: empty catalog estimates %v at %v, oracle %v", i, got, n, want)
			}
			if got, want := ChooseJoinSides(n, nil).String(), refChooseJoinSides(n).String(); got != want {
				t.Fatalf("plan %d: build sides differ:\n got    %s\n oracle %s", i, got, want)
			}
		})
	}
	if nodes < 250 {
		t.Fatalf("oracle compared on only %d nodes", nodes)
	}
}
