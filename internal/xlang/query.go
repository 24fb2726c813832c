package xlang

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"unicode"

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
	first, rest := field(src)
	second, _ := field(rest)
	return first == "from" && second != "" && second != ":="
}

// field returns the first field of s, split as strings.Fields splits,
// and the rest of s after it, allocating nothing.
func field(s string) (f, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
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
	// Cached reports that the plan was bound into one cached for the
	// statement's shape (plan.Catalog.Bind), not compiled.
	Cached bool
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
func (q *Query) Run(ctx context.Context, emit func(b *table.Batch) error) (plan.ExecStats, error) {
	op, err := plan.CompileDOP(q.Node, q.DOP())
	if err != nil {
		return plan.ExecStats{}, err
	}
	err = exec.Drain(ctx, op, emit)
	if sp := trace.SpanOf(ctx); sp != nil {
		plan.AttachOpSpansEst(sp, op, plan.OpEstimates(q.Node, op, q.cat))
	}
	return plan.TreeStats(op), err
}

// CompileQuery parses src against the environment's table bindings and
// the catalog of its current read snapshot, and returns the optimized
// query with its cost-chosen degree of parallelism.
func CompileQuery(env *Env, src string) (*Query, error) {
	return CompileAt(env, env.Pin().Snap, src)
}

// CompileAt is CompileQuery against cat, the catalog of a snapshot the
// caller took and runs the query at. A statement whose tables all
// resolve in cat binds its literals into a plan cached in cat for its
// shape and their key (plan.Catalog.Bind) when there is one.
func CompileAt(env *Env, cat *plan.Catalog, src string) (*Query, error) {
	s := compilePool.Get().(*compileScratch)
	defer compilePool.Put(s)
	var err error
	if s.toks, err = lex(s.toks[:0], src); err != nil {
		return nil, err
	}
	bound := cat != nil && s.shape()
	if bound {
		if n, ok := cat.Bind(s.key, s.vals); ok {
			return &Query{Node: n, dop: plan.ChooseDOP(n), cat: cat, Cached: true}, nil
		}
	}
	p := &qparser{toks: s.toks, env: env, cat: cat}
	if cat != nil {
		p.vals, p.at = s.vals, s.at
	}
	n, err := p.parse()
	if err != nil {
		return nil, err
	}
	node := plan.OptimizeCatalog(n, cat)
	if bound && !p.outside {
		cat.Remember(s.key, p.where, node, s.vals)
	}
	return &Query{Node: node, dop: plan.ChooseDOP(node), cat: cat}, nil
}

// compileScratch is one compile's reusable buffers.
type compileScratch struct {
	toks []token
	key  []byte
	vals []core.Value
	at   []int // the token each of vals starts at
}

var compilePool = sync.Pool{New: func() any { return new(compileScratch) }}

// shape writes the statement's shape into key: its tokens, kinds and
// texts, with each literal after a comparison operator (the literals the
// parser reads, as Remember checks) kept as its kind alone. It reports
// whether every such literal converted into vals.
func (s *compileScratch) shape() bool {
	s.key, s.vals, s.at = s.key[:0], s.vals[:0], s.at[:0]
	ok := true
	for i := 0; i < len(s.toks); i++ {
		t := s.toks[i]
		if lit, n := litAt(s.toks, i); n > 0 && i > 0 && isCmp(s.toks[i-1].kind) {
			v, err := evalLit(&lit)
			s.vals, s.at, ok = append(s.vals, v), append(s.at, i), ok && err == nil
			s.key = append(s.key, 0xff, byte(s.toks[i+n-1].kind), byte(n))
			i += n - 1
			continue
		}
		s.key = append(binary.AppendUvarint(append(s.key, byte(t.kind)), uint64(len(t.text))), t.text...)
	}
	return ok
}

func isCmp(k tokenKind) bool { return k == tokEq || k == tokLE || k == tokLAngle || k == tokRAngle }

// query runs a query statement under the statement's read snapshot and
// renders the result as the extended set of its row tuples.
func (st *stmt) query(ctx context.Context, src string) (core.Value, error) {
	q, err := CompileAt(st.env, st.pin().Snap, src)
	if err != nil {
		return nil, err
	}
	out := core.NewBuilder(0)
	if _, err := q.Run(ctx, func(b *table.Batch) error {
		row := make([]core.Value, len(b.Cols)) // Tuple copies it
		for i := 0; i < b.Len; i++ {
			for c := range b.Cols {
				row[c] = b.Cols[c].Value(i)
			}
			out.AddClassical(core.Tuple(row...))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out.Set(), nil
}

type qparser struct {
	toks    []token
	i       int
	env     *Env
	cat     *plan.Catalog
	where   *plan.Select // the where clause, nil without one
	outside bool         // a table resolved outside cat
	vals    []core.Value // the literals shape converted, from the one at token at[0] on
	at      []int
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
		p.outside = true
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
		p.where = &plan.Select{Child: n, Pred: pred}
		n = p.where
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

// literal parses one comparison constant, taking the value shape
// converted from its tokens when there is one.
func (p *qparser) literal() (core.Value, error) {
	lit, n := litAt(p.toks, p.i)
	if n == 0 && lit.val.kind == tokMinus {
		return nil, errAt(p.toks[p.i+1].pos, "expected number after '-'")
	}
	if n == 0 {
		return nil, errAt(lit.at, "expected literal, found %v", lit.val.kind)
	}
	at := p.i
	p.i += n
	for len(p.at) > 0 && p.at[0] < at {
		p.vals, p.at = p.vals[1:], p.at[1:]
	}
	if len(p.at) > 0 && p.at[0] == at && p.vals[0] != nil {
		return p.vals[0], nil
	}
	return evalLit(&lit)
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
