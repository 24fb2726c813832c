package xlang

import (
	"context"
	"fmt"
	"strings"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/plan"
	"xst/internal/table"
	"xst/internal/trace"
)

// aggKinds maps aggregate keywords to their exec kinds.
var aggKinds = map[string]exec.AggKind{
	"count": exec.AggCount, "sum": exec.AggSum, "min": exec.AggMin, "max": exec.AggMax,
}

// Query statements are the stored-data face of the language: where the
// symbolic expressions operate on fully materialized extended sets, a
// `from` statement compiles to a logical plan, is optimized, and runs
// on the streaming batch-operator tree (internal/exec) — so results
// flow page batch by page batch and never buffer whole unless an
// operator (join build, sort, aggregate) requires it.
//
// Grammar (clauses in this order; keywords are plain identifiers):
//
//	query  := 'from' TABLE join* where? group? select? order? limit?
//	join   := 'join' TABLE 'on' COL '=' COL
//	where  := 'where' cond ('and' cond)*
//	cond   := COL ('=' | '<>' | '<' | '<=' | '>' | '>=') literal
//	group  := 'group' 'by'? COL agg*
//	agg    := 'count' | ('sum'|'min'|'max') '(' COL ')'
//	select := 'select' 'distinct'? item (',' item)*
//	item   := COL | ('count'|'sum'|'min'|'max') ('(' COL ')')?
//	order  := 'order' 'by'? item ('asc'|'desc')?
//	limit  := 'limit' INT
//
// A table name resolves in the environment's planner catalog first —
// the snapshot of a database's tables, indexes and statistics at one
// commit — and then among the tables bound with Env.BindTable (session
// scratch tables, environments without a database). Evaluated as an
// expression, a query renders its result as the extended set of its row
// tuples — duplicate rows collapse, as sets do; use Query.Run for the
// row stream.

// IsQuery reports whether src is a query statement (leads with the
// `from` keyword rather than binding or referencing a variable).
func IsQuery(src string) bool {
	fs := strings.Fields(src)
	return len(fs) >= 2 && fs[0] == "from" && fs[1] != ":="
}

// Query is one compiled, optimized query statement.
type Query struct {
	// Node is the optimized logical plan.
	Node plan.Node
	// dop is the cost-chosen degree of parallelism (1 = serial),
	// decided at compile time so admission control can price the query
	// before it runs.
	dop int
	// cat is the planner catalog the plan was optimized against (nil
	// without one); Run reuses it to annotate traced operator spans
	// with the estimates the plan was chosen on.
	cat *plan.Catalog
}

// Schema reports the result schema.
func (q *Query) Schema() table.Schema { return q.Node.Schema() }

// DOP reports the cost-chosen degree of parallelism: the number of
// workers the executed tree fans out to (1 for a serial tree).
func (q *Query) DOP() int {
	if q.dop < 1 {
		return 1
	}
	return q.dop
}

// Run lowers the plan to a streaming operator tree at the compiled
// degree of parallelism and feeds each result batch to emit under ctx.
// Batches are operator scratch — see the exec package contract — and
// must not be retained. The returned stats report the tree's physical
// counters.
//
// When ctx carries a trace span, the drained operator tree is mirrored
// under it (plan.AttachOpSpansEst) with both actual counters and the
// plan-time estimates, so a traced query's span tree carries the same
// per-operator data EXPLAIN ANALYZE reports.
func (q *Query) Run(ctx context.Context, emit func(rows []table.Row) error) (plan.ExecStats, error) {
	op, err := plan.CompileDOP(q.Node, q.DOP())
	if err != nil {
		return plan.ExecStats{}, err
	}
	err = exec.Stream(ctx, op, emit)
	if sp := trace.SpanOf(ctx); sp != nil {
		plan.AttachOpSpansEst(sp, op, plan.OpEstimates(q.Node, op, q.cat))
	}
	return plan.TreeStats(op), err
}

// CompileQuery parses src against the environment's table bindings and
// returns the optimized query with its cost-chosen degree of
// parallelism.
func CompileQuery(env *Env, src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	cat := env.PlanCatalog()
	p := &qparser{toks: toks, env: env, cat: cat}
	n, err := p.parse()
	if err != nil {
		return nil, err
	}
	node := plan.OptimizeCatalog(n, cat)
	return &Query{Node: node, dop: plan.ChooseDOP(node), cat: cat}, nil
}

// evalQuery runs a query statement and renders the result as the
// extended set of its row tuples.
func evalQuery(ctx context.Context, env *Env, src string) (core.Value, error) {
	q, err := CompileQuery(env, src)
	if err != nil {
		return nil, err
	}
	b := core.NewBuilder(0)
	if _, err := q.Run(ctx, func(rows []table.Row) error {
		for _, r := range rows {
			b.AddClassical(r.Tuple())
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return b.Set(), nil
}

type qparser struct {
	toks []token
	i    int
	env  *Env
	cat  *plan.Catalog
}

func (p *qparser) cur() token  { return p.toks[p.i] }
func (p *qparser) next() token { t := p.toks[p.i]; p.i++; return t }

// word reports whether the current token is the given keyword.
func (p *qparser) word(kw string) bool {
	return p.cur().kind == tokIdent && p.cur().text == kw
}

// eat consumes the current token if it is the given keyword.
func (p *qparser) eat(kw string) bool {
	if p.word(kw) {
		p.next()
		return true
	}
	return false
}

func (p *qparser) ident(what string) (token, error) {
	if p.cur().kind != tokIdent {
		return token{}, errAt(p.cur().pos, "expected %s, found %v", what, p.cur().kind)
	}
	return p.next(), nil
}

// tableNode resolves a from/join table reference: the catalog
// snapshot's table of that name, else one the environment binds itself,
// else a bound virtual table (system view), which enters the plan as a
// Source leaf whose operator computes the rows when the query opens.
func (p *qparser) tableNode(t token) (plan.Node, error) {
	tab, ok := p.cat.Table(t.text)
	if !ok {
		tab, ok = p.env.Table(t.text)
	}
	if ok {
		return &plan.Scan{Table: tab}, nil
	}
	if v, ok := p.env.Virtual(t.text); ok {
		return &plan.Source{
			Sch:   v.Schema(),
			Rows:  v.EstRows(),
			Label: "sysview(" + t.text + ")",
			New:   v.NewOp,
		}, nil
	}
	return nil, evalErr(t.pos, "unknown table %q", t.text)
}

// needCol checks that a referenced column exists in the current plan's
// schema.
func needCol(sch table.Schema, t token) error {
	if sch.Col(t.text) < 0 {
		return evalErr(t.pos, "unknown column %q (have %s)", t.text, strings.Join(sch.Cols, ","))
	}
	return nil
}

func (p *qparser) parse() (plan.Node, error) {
	if !p.eat("from") {
		return nil, errAt(p.cur().pos, "query must start with 'from'")
	}
	t, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	n, err := p.tableNode(t)
	if err != nil {
		return nil, err
	}

	for p.eat("join") {
		jt, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		jn, err := p.tableNode(jt)
		if err != nil {
			return nil, err
		}
		if !p.eat("on") {
			return nil, errAt(p.cur().pos, "expected 'on' after join table")
		}
		lc, err := p.ident("join column")
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokEq {
			return nil, errAt(p.cur().pos, "join condition must be column = column")
		}
		p.next()
		rc, err := p.ident("join column")
		if err != nil {
			return nil, err
		}
		if err := needCol(n.Schema(), lc); err != nil {
			return nil, err
		}
		if err := needCol(jn.Schema(), rc); err != nil {
			return nil, err
		}
		n = &plan.Join{Left: n, Right: jn, LeftCol: lc.text, RightCol: rc.text}
	}

	if p.eat("where") {
		var preds plan.And
		for {
			c, err := p.ident("column")
			if err != nil {
				return nil, err
			}
			if err := needCol(n.Schema(), c); err != nil {
				return nil, err
			}
			op, err := p.cmpOp()
			if err != nil {
				return nil, err
			}
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			preds = append(preds, plan.Cmp{Col: c.text, Op: op, Val: v})
			if !p.eat("and") {
				break
			}
		}
		pred := plan.Pred(preds)
		if len(preds) == 1 {
			pred = preds[0]
		}
		n = &plan.Select{Child: n, Pred: pred}
	}

	if p.eat("group") {
		p.eat("by")
		key, err := p.ident("group key")
		if err != nil {
			return nil, err
		}
		if err := needCol(n.Schema(), key); err != nil {
			return nil, err
		}
		var aggs []plan.AggSpec
		for {
			spec, ok, err := p.aggSpec(n.Schema())
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			aggs = append(aggs, spec)
		}
		if len(aggs) == 0 {
			aggs = []plan.AggSpec{{Kind: exec.AggCount}}
		}
		n = &plan.GroupBy{Child: n, Key: key.text, Aggs: aggs}
	}

	if p.eat("select") {
		distinct := p.eat("distinct")
		var cols []string
		for {
			name, err := p.item()
			if err != nil {
				return nil, err
			}
			if n.Schema().Col(name) < 0 {
				return nil, evalErr(p.cur().pos, "unknown column %q (have %s)",
					name, strings.Join(n.Schema().Cols, ","))
			}
			cols = append(cols, name)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
		n = &plan.Project{Child: n, Cols: cols}
		if distinct {
			n = &plan.Distinct{Child: n}
		}
	}

	if p.eat("order") {
		p.eat("by")
		name, err := p.item()
		if err != nil {
			return nil, err
		}
		if n.Schema().Col(name) < 0 {
			return nil, evalErr(p.cur().pos, "unknown order column %q", name)
		}
		desc := false
		if p.eat("desc") {
			desc = true
		} else {
			p.eat("asc")
		}
		n = &plan.Sort{Child: n, Col: name, Desc: desc}
	}

	if p.eat("limit") {
		t := p.cur()
		if t.kind != tokInt {
			return nil, errAt(t.pos, "expected row count after 'limit'")
		}
		p.next()
		var limit int
		if _, err := fmt.Sscanf(t.text, "%d", &limit); err != nil || limit < 0 {
			return nil, errAt(t.pos, "bad limit %q", t.text)
		}
		n = &plan.Limit{Child: n, N: limit}
	}

	if p.cur().kind != tokEOF {
		return nil, errAt(p.cur().pos, "unexpected trailing %v in query", p.cur().kind)
	}
	return n, nil
}

// cmpOp parses a comparison operator, composing the two-token forms
// the lexer emits for >= and <>.
func (p *qparser) cmpOp() (plan.CmpOp, error) {
	t := p.next()
	switch t.kind {
	case tokEq:
		return plan.Eq, nil
	case tokLE:
		return plan.Le, nil
	case tokLAngle:
		if p.cur().kind == tokRAngle {
			p.next()
			return plan.Ne, nil
		}
		return plan.Lt, nil
	case tokRAngle:
		if p.cur().kind == tokEq {
			p.next()
			return plan.Ge, nil
		}
		return plan.Gt, nil
	default:
		return 0, errAt(t.pos, "expected comparison operator, found %v", t.kind)
	}
}

// literal parses one comparison constant.
func (p *qparser) literal() (core.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokInt, tokFloat, tokString:
		p.next()
		return evalLit(&litNode{at: t.pos, val: valueLit{kind: t.kind, text: t.text}})
	case tokMinus:
		p.next()
		num := p.cur()
		if num.kind != tokInt && num.kind != tokFloat {
			return nil, errAt(num.pos, "expected number after '-'")
		}
		p.next()
		return evalLit(&litNode{at: t.pos, val: valueLit{kind: num.kind, text: num.text, neg: true}})
	case tokIdent:
		if t.text == "true" || t.text == "false" {
			p.next()
			return core.Bool(t.text == "true"), nil
		}
	}
	return nil, errAt(t.pos, "expected literal, found %v", t.kind)
}

// aggSpec parses one aggregate in a group clause; ok is false when the
// current token does not start one.
func (p *qparser) aggSpec(sch table.Schema) (plan.AggSpec, bool, error) {
	kind, ok := aggKinds[p.cur().text]
	if p.cur().kind != tokIdent || !ok {
		return plan.AggSpec{}, false, nil
	}
	name := p.next()
	if kind == exec.AggCount {
		return plan.AggSpec{Kind: kind}, true, nil
	}
	if p.cur().kind != tokLParen {
		return plan.AggSpec{}, false, errAt(p.cur().pos, "expected (column) after %s", name.text)
	}
	p.next()
	col, err := p.ident("aggregate column")
	if err != nil {
		return plan.AggSpec{}, false, err
	}
	if err := needCol(sch, col); err != nil {
		return plan.AggSpec{}, false, err
	}
	if p.cur().kind != tokRParen {
		return plan.AggSpec{}, false, errAt(p.cur().pos, "expected ) after aggregate column")
	}
	p.next()
	return plan.AggSpec{Kind: kind, Col: col.text}, true, nil
}

// item parses a result column reference: a plain name or an aggregate
// output name like sum(amount), which joins back to the GroupBy
// schema's column naming.
func (p *qparser) item() (string, error) {
	t, err := p.ident("column")
	if err != nil {
		return "", err
	}
	if _, isAgg := aggKinds[t.text]; isAgg && p.cur().kind == tokLParen {
		p.next()
		col, err := p.ident("aggregate column")
		if err != nil {
			return "", err
		}
		if p.cur().kind != tokRParen {
			return "", errAt(p.cur().pos, "expected ) after aggregate column")
		}
		p.next()
		return fmt.Sprintf("%s(%s)", t.text, col.text), nil
	}
	return t.text, nil
}
