package xlang

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"xst/internal/algebra"
	"xst/internal/core"
	"xst/internal/plan"
	"xst/internal/table"
)

// Env holds variable bindings for evaluation. An identifier resolves in
// three steps: a variable bound with `name := expr` (or Bind); else a
// stored table of the statement's planner-catalog snapshot, as its
// extended set, when a table resolver is bound; else the *symbol* — the
// string atom — so `{<a,b>}` means the set holding the pair of symbols
// a and b, matching the paper's notation. Query statements (`from …`)
// stream from the table pages instead of evaluating a materialized
// value: the planner catalog names a database's tables, BindTable the
// ones that belong to this environment alone.
type Env struct {
	vars   map[string]core.Value
	tables map[string]*table.Table
	// virtuals are on-demand computed tables (the `__sys.*` system
	// views); consulted by query statements after stored tables.
	virtuals map[string]VirtualTable
	// planCat provides the planner catalog (tables + statistics +
	// indexes) for query compilation. A provider rather than a snapshot:
	// every commit publishes a new catalog, and every session clone
	// should see it on its next query.
	planCat func() *plan.Catalog
	// tableSet materialises a stored table of the planner catalog as its
	// extended set; shared by clones, like planCat.
	tableSet TableResolver
}

// TableResolver turns the stored table a catalog snapshot names into
// its extended set (a database memoises one set per published version).
type TableResolver func(name string, t *table.Table) (*core.Set, error)

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{
		vars:     map[string]core.Value{},
		tables:   map[string]*table.Table{},
		virtuals: map[string]VirtualTable{},
	}
}

// Clone returns an independent copy of the environment: later Binds on
// either side are invisible to the other. Values are immutable, so the
// copy is shallow. The server uses this to give every connection an
// isolated session over one shared set of base bindings.
func (e *Env) Clone() *Env {
	vars := make(map[string]core.Value, len(e.vars))
	for k, v := range e.vars {
		vars[k] = v
	}
	tables := make(map[string]*table.Table, len(e.tables))
	for k, t := range e.tables {
		tables[k] = t
	}
	virtuals := make(map[string]VirtualTable, len(e.virtuals))
	for k, v := range e.virtuals {
		virtuals[k] = v
	}
	return &Env{vars: vars, tables: tables, virtuals: virtuals, planCat: e.planCat, tableSet: e.tableSet}
}

// BindPlanCatalog registers a planner-catalog provider (a database's
// tables, statistics and declared indexes); queries compiled against
// this environment resolve table names in it and become cost-based. The
// provider is shared by clones.
func (e *Env) BindPlanCatalog(fn func() *plan.Catalog) { e.planCat = fn }

// BindTableResolver makes the planner catalog's tables readable as sets:
// an identifier with no variable binding that names a table in the
// statement's catalog snapshot evaluates to fn's set for that table
// instead of a symbol. The resolver is shared by clones.
func (e *Env) BindTableResolver(fn TableResolver) { e.tableSet = fn }

// PlanCatalog resolves the current planner catalog; nil when no
// provider is bound (plans then use the constant cost model).
func (e *Env) PlanCatalog() *plan.Catalog {
	if e.planCat == nil {
		return nil
	}
	return e.planCat()
}

// BindTable registers a table of the environment's own for query
// statements. A table of the same name in the planner catalog wins.
func (e *Env) BindTable(name string, t *table.Table) { e.tables[name] = t }

// Table fetches a table bound with BindTable.
func (e *Env) Table(name string) (*table.Table, bool) {
	t, ok := e.tables[name]
	return t, ok
}

// TableNames returns the bound table names (unsorted).
func (e *Env) TableNames() []string {
	out := make([]string, 0, len(e.tables))
	for k := range e.tables {
		out = append(out, k)
	}
	return out
}

// Bind sets a variable.
func (e *Env) Bind(name string, v core.Value) { e.vars[name] = v }

// Lookup fetches a variable.
func (e *Env) Lookup(name string) (core.Value, bool) {
	v, ok := e.vars[name]
	return v, ok
}

// Names returns the bound variable names (unsorted).
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.vars))
	for k := range e.vars {
		out = append(out, k)
	}
	return out
}

// EvalError reports an evaluation problem at a source offset.
type EvalError struct {
	Pos int
	Msg string
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("eval error at offset %d: %s", e.Pos, e.Msg)
}

func evalErr(pos int, format string, args ...any) error {
	return &EvalError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Eval parses and evaluates one statement against the environment. For
// assignments the bound value is returned.
func Eval(env *Env, src string) (core.Value, error) {
	return EvalCtx(context.Background(), env, src)
}

// EvalCtx is Eval with a cancellation context: evaluation checks ctx
// between nodes and inside the expensive algebra loops (cross products,
// closures), so a deadline or cancel aborts a running query promptly
// with ctx.Err(). This is what makes the query server's per-query
// deadlines effective.
func EvalCtx(ctx context.Context, env *Env, src string) (core.Value, error) {
	if IsQuery(src) {
		return evalQuery(ctx, env, src)
	}
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	st := stmt{env: env}
	return st.eval(ctx, n)
}

// stmt is one statement's evaluation: the environment plus the planner
// catalog its table names resolve in, pinned at the first identifier
// that reaches the resolver so every mention reads one version.
type stmt struct {
	env *Env
	cat *plan.Catalog
}

// ident resolves an identifier: variable, then stored table, then symbol.
func (st *stmt) ident(name string) (core.Value, error) {
	if v, ok := st.env.vars[name]; ok {
		return v, nil
	}
	if st.env.tableSet != nil {
		if st.cat == nil {
			st.cat = st.env.PlanCatalog()
		}
		if t, ok := st.cat.Table(name); ok {
			return st.env.tableSet(name, t)
		}
	}
	return core.Str(name), nil
}

// EvalProgram evaluates a multi-line program (one statement per line,
// blank lines and #-comments skipped) and returns the value of the last
// statement. Errors carry the 1-based line number.
func EvalProgram(env *Env, src string) (core.Value, error) {
	return EvalProgramCtx(context.Background(), env, src)
}

// EvalProgramCtx is EvalProgram under a cancellation context.
func EvalProgramCtx(ctx context.Context, env *Env, src string) (core.Value, error) {
	var last core.Value = core.Empty()
	for i, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := EvalCtx(ctx, env, line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		last = v
	}
	return last, nil
}

func (st *stmt) eval(ctx context.Context, n node) (core.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch x := n.(type) {
	case *assignNode:
		v, err := st.eval(ctx, x.expr)
		if err != nil {
			return nil, err
		}
		st.env.Bind(x.name, v)
		return v, nil
	case *litNode:
		return evalLit(x)
	case *identNode:
		return st.ident(x.name)
	case *setNode:
		b := core.NewBuilder(len(x.members))
		for _, m := range x.members {
			elem, err := st.eval(ctx, m.elem)
			if err != nil {
				return nil, err
			}
			scope := core.Value(core.Empty())
			if m.scope != nil {
				if scope, err = st.eval(ctx, m.scope); err != nil {
					return nil, err
				}
			}
			b.Add(elem, scope)
		}
		return b.Set(), nil
	case *tupleNode:
		elems := make([]core.Value, len(x.elems))
		for i, e := range x.elems {
			v, err := st.eval(ctx, e)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return core.Tuple(elems...), nil
	case *binNode:
		return st.bin(ctx, x)
	case *imageNode:
		return st.image(ctx, x)
	case *callNode:
		return st.call(ctx, x)
	default:
		return nil, evalErr(n.pos(), "unknown node %T", n)
	}
}

func evalLit(x *litNode) (core.Value, error) {
	switch x.val.kind {
	case tokInt:
		i, err := strconv.ParseInt(x.val.text, 10, 64)
		if err != nil {
			return nil, evalErr(x.at, "bad integer %q", x.val.text)
		}
		if x.val.neg {
			i = -i
		}
		return core.Int(i), nil
	case tokFloat:
		f, err := strconv.ParseFloat(x.val.text, 64)
		if err != nil {
			return nil, evalErr(x.at, "bad float %q", x.val.text)
		}
		if x.val.neg {
			f = -f
		}
		return core.Float(f), nil
	case tokString:
		return core.Str(x.val.text), nil
	case tokIdent:
		return core.Bool(x.val.text == "true"), nil
	default:
		return nil, evalErr(x.at, "bad literal kind %v", x.val.kind)
	}
}

func asSet(pos int, v core.Value, role string) (*core.Set, error) {
	s, ok := v.(*core.Set)
	if !ok {
		return nil, evalErr(pos, "%s must be a set, found %v", role, v)
	}
	return s, nil
}

func (st *stmt) bin(ctx context.Context, x *binNode) (core.Value, error) {
	lv, err := st.eval(ctx, x.l)
	if err != nil {
		return nil, err
	}
	rv, err := st.eval(ctx, x.r)
	if err != nil {
		return nil, err
	}
	switch x.op {
	case tokEq:
		return core.Bool(core.Equal(lv, rv)), nil
	case tokLE:
		ls, err := asSet(x.at, lv, "subset operand")
		if err != nil {
			return nil, err
		}
		rs, err := asSet(x.at, rv, "subset operand")
		if err != nil {
			return nil, err
		}
		return core.Bool(core.Subset(ls, rs)), nil
	}
	ls, err := asSet(x.at, lv, "operand")
	if err != nil {
		return nil, err
	}
	rs, err := asSet(x.at, rv, "operand")
	if err != nil {
		return nil, err
	}
	switch x.op {
	case tokPlus:
		return core.Union(ls, rs), nil
	case tokTilde:
		return core.Diff(ls, rs), nil
	case tokAmp:
		return core.Intersect(ls, rs), nil
	default:
		return nil, evalErr(x.at, "unknown operator %v", x.op)
	}
}

func (st *stmt) image(ctx context.Context, x *imageNode) (core.Value, error) {
	rv, err := st.eval(ctx, x.rel)
	if err != nil {
		return nil, err
	}
	av, err := st.eval(ctx, x.arg)
	if err != nil {
		return nil, err
	}
	r, err := asSet(x.at, rv, "image relation")
	if err != nil {
		return nil, err
	}
	a, err := asSet(x.at, av, "image argument")
	if err != nil {
		return nil, err
	}
	sig := algebra.StdSigma()
	if x.s1 != nil {
		s1v, err := st.eval(ctx, x.s1)
		if err != nil {
			return nil, err
		}
		s2v, err := st.eval(ctx, x.s2)
		if err != nil {
			return nil, err
		}
		s1, err := asSet(x.at, s1v, "σ1")
		if err != nil {
			return nil, err
		}
		s2, err := asSet(x.at, s2v, "σ2")
		if err != nil {
			return nil, err
		}
		sig = algebra.NewSigma(s1, s2)
	}
	return algebra.Image(r, a, sig), nil
}
