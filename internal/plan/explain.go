package plan

import (
	"fmt"
	"strings"

	"xst/internal/exec"
)

// Explain renders the plan as an indented tree with estimated
// cardinalities — the EXPLAIN output of the mini-optimizer:
//
//	project[name,hours]                      est 25
//	└─ join[owner=pid]                       est 250
//	   ├─ select[topic="queries"]            est 50
//	   │  └─ scan(tasks)                     est 500
//	   └─ scan(people)                       est 100
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, "", true, true)
	return b.String()
}

// OpEstimates pairs a compiled operator tree with its logical plan and
// returns the per-operator cardinality estimates the planner chose the
// plan on. Serial trees compile one operator per plan node, so the
// pairing is positional; when a subtree's shapes diverge (parallel
// fan-outs compile one logical node into many operators) the walk stops
// there — those operators simply carry no estimate.
func OpEstimates(n Node, op exec.Operator, cat *Catalog) map[exec.Operator]float64 {
	m := map[exec.Operator]float64{}
	var rec func(n Node, o exec.Operator)
	rec = func(n Node, o exec.Operator) {
		m[o] = cat.Estimate(n)
		kids, okids := children(n), o.Children()
		if len(kids) != len(okids) {
			return
		}
		for i := range kids {
			rec(kids[i], okids[i])
		}
	}
	rec(n, op)
	return m
}

func explain(b *strings.Builder, n Node, prefix string, last, top bool) {
	label := nodeLabel(n)
	est := (*Catalog)(nil).Estimate(n)
	var line string
	switch {
	case top:
		line = label
	case last:
		line = prefix + "└─ " + label
	default:
		line = prefix + "├─ " + label
	}
	fmt.Fprintf(b, "%-48s est %.0f\n", line, est)
	kids := children(n)
	for i, k := range kids {
		childPrefix := prefix
		if !top {
			if last {
				childPrefix += "   "
			} else {
				childPrefix += "│  "
			}
		}
		explain(b, k, childPrefix, i == len(kids)-1, false)
	}
}

func nodeLabel(n Node) string {
	switch x := n.(type) {
	case *Scan:
		return "scan(" + x.Table.Schema().Name + ")"
	case *IndexAccess:
		return x.String()
	case *Select:
		return "select[" + x.Pred.String() + "]"
	case *Project:
		return "project[" + strings.Join(x.Cols, ",") + "]"
	case *Join:
		return fmt.Sprintf("join[%s=%s]", x.LeftCol, x.RightCol)
	case *Distinct:
		return "distinct"
	case *Sort:
		dir := "asc"
		if x.Desc {
			dir = "desc"
		}
		return fmt.Sprintf("sort[%s %s]", x.Col, dir)
	case *Limit:
		return fmt.Sprintf("limit[%d]", x.N)
	case *GroupBy:
		return "group[" + x.Key + "]"
	case *Rename:
		return "rename[" + strings.Join(x.Cols, ",") + "]"
	case *Source:
		return x.Label
	default:
		return fmt.Sprintf("%T", n)
	}
}

func children(n Node) []Node {
	switch x := n.(type) {
	case *Select:
		return []Node{x.Child}
	case *Project:
		return []Node{x.Child}
	case *Join:
		return []Node{x.Left, x.Right}
	case *Distinct:
		return []Node{x.Child}
	case *Sort:
		return []Node{x.Child}
	case *Limit:
		return []Node{x.Child}
	case *GroupBy:
		return []Node{x.Child}
	case *Rename:
		return []Node{x.Child}
	default:
		return nil
	}
}

// withChildren rebuilds n over its children, in children(n) order,
// each mapped through f; leaves come back as they are. When f returns
// every child unchanged so does withChildren, so a pass that rewrites
// nothing allocates nothing, and an f that only inspects its argument
// makes withChildren a visitor.
func withChildren(n Node, f func(Node) Node) Node {
	switch x := n.(type) {
	case *Select:
		if c := f(x.Child); c != x.Child {
			return &Select{Child: c, Pred: x.Pred}
		}
	case *Project:
		if c := f(x.Child); c != x.Child {
			return &Project{Child: c, Cols: x.Cols}
		}
	case *Join:
		l, r := f(x.Left), f(x.Right)
		if l != x.Left || r != x.Right {
			return &Join{Left: l, Right: r, LeftCol: x.LeftCol, RightCol: x.RightCol}
		}
	case *Distinct:
		if c := f(x.Child); c != x.Child {
			return &Distinct{Child: c}
		}
	case *Sort:
		if c := f(x.Child); c != x.Child {
			return &Sort{Child: c, Col: x.Col, Desc: x.Desc}
		}
	case *Limit:
		if c := f(x.Child); c != x.Child {
			return &Limit{Child: c, N: x.N}
		}
	case *GroupBy:
		if c := f(x.Child); c != x.Child {
			return &GroupBy{Child: c, Key: x.Key, Aggs: x.Aggs, Groups: x.Groups, Rows: x.Rows}
		}
	case *Rename:
		if c := f(x.Child); c != x.Child {
			return &Rename{Child: c, Cols: x.Cols}
		}
	}
	return n
}
