package xlang

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"xst/internal/algebra"
	"xst/internal/core"
	"xst/internal/plan"
	"xst/internal/store"
	"xst/internal/table"
)

// Env holds variable bindings for evaluation. An identifier resolves in
// three steps: a variable bound with `name := expr` (or Bind); else a
// stored table of the statement's read snapshot, as its extended set,
// when a reader with a table resolver is bound; else the *symbol* — the
// string atom — so `{<a,b>}` means the set holding the pair of symbols
// a and b, matching the paper's notation. Query statements (`from …`)
// stream from the table pages instead of evaluating a materialized
// value: the snapshot's planner catalog names a database's tables,
// BindTable the ones that belong to this environment alone.
type Env struct {
	vars   map[string]core.Value
	tables map[string]*table.Table
	// virtuals are on-demand computed tables (the `__sys.*` system
	// views); consulted by query statements after stored tables.
	virtuals map[string]VirtualTable
	// read pins one statement's read snapshot, and sets reads a table of
	// its catalog as a set; clones share both, so every session sees each
	// later commit on its next statement.
	read func() ReadTxn
	sets TableResolver
}

// ReadTxn is one statement's read snapshot: the planner catalog its
// table names resolve in (tables, statistics, indexes) and the commit
// that published it. Each table version Snap names reads exactly its
// own rows, so a snapshot holds nothing and is never released.
type ReadTxn struct {
	Snap  *plan.Catalog
	Epoch uint64
	// View is kept for benchsurface_test.go; it is always nil.
	View *store.View
}

// TableResolver turns a table of a pinned catalog into its extended set.
type TableResolver func(name string, t *table.Table) (*core.Set, error)

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{
		vars:     map[string]core.Value{},
		tables:   map[string]*table.Table{},
		virtuals: map[string]VirtualTable{},
		read:     func() ReadTxn { return ReadTxn{} },
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
	return &Env{vars: vars, tables: tables, virtuals: virtuals, read: e.read, sets: e.sets}
}

// BindReader binds the database statements read: read pins one read
// snapshot per statement, and sets, when non-nil, makes its catalog's
// tables readable as sets — an identifier with no variable binding that
// names one evaluates to sets' set for it instead of a symbol.
func (e *Env) BindReader(read func() ReadTxn, sets TableResolver) { e.read, e.sets = read, sets }

// BindPlanCatalog binds a provider of planner catalogs (tables,
// statistics and declared indexes): queries compile against its catalog
// and become cost-based, and identifiers stay symbols, as no resolver
// reads its tables as sets. It replaces any reader.
func (e *Env) BindPlanCatalog(fn func() *plan.Catalog) {
	e.BindReader(func() ReadTxn { return ReadTxn{Snap: fn()} }, nil)
}

// Pin takes the environment's read snapshot for one statement (the zero
// ReadTxn when no reader is bound).
func (e *Env) Pin() ReadTxn { return e.read() }

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
	st := stmt{env: env}
	if IsQuery(src) {
		return st.query(ctx, src)
	}
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return st.eval(ctx, n)
}

// stmt is one statement's evaluation: the environment plus the read
// snapshot its table names resolve in, pinned once, so every mention
// reads one version.
type stmt struct {
	env *Env
	rt  ReadTxn
}

// pin returns the statement's read snapshot, pinning it on first use: a
// query before it compiles, an expression at the first identifier that
// reaches table resolution.
func (st *stmt) pin() ReadTxn {
	if st.rt == (ReadTxn{}) {
		st.rt = st.env.Pin()
	}
	return st.rt
}

// ident resolves an identifier: variable, then stored table, then symbol.
func (st *stmt) ident(name string) (core.Value, error) {
	if v, ok := st.env.vars[name]; ok {
		return v, nil
	}
	if st.env.sets != nil {
		if t, ok := st.pin().Snap.Table(name); ok {
			return st.env.sets(name, t)
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
		return st.bin(ctx, x, false)
	case *imageNode, *callNode:
		if v, ok, err := st.derived(ctx, x, false); ok {
			return v, err
		}
		return st.call(ctx, x.(*callNode))
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

// bin evaluates a binary operator; with count, + and & return the
// cardinality of their result, counted without building it.
func (st *stmt) bin(ctx context.Context, x *binNode, count bool) (core.Value, error) {
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
	switch {
	case x.op == tokPlus && count:
		return core.Int(core.UnionCard(ls, rs)), nil
	case x.op == tokAmp && count:
		return core.Int(core.IntersectCard(ls, rs)), nil
	case x.op == tokPlus:
		return core.Union(ls, rs), nil
	case x.op == tokTilde:
		return core.Diff(ls, rs), nil
	case x.op == tokAmp:
		return core.Intersect(ls, rs), nil
	default:
		return nil, evalErr(x.at, "unknown operator %v", x.op)
	}
}

// image evaluates the operands of R[A] or R[A]_{σ1,σ2}: the image is
// the σ2-domain of the σ1-restriction (Def 7.1), derived but not built.
func (st *stmt) image(ctx context.Context, x *imageNode) (*algebra.Derived, error) {
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
	return algebra.DeriveImage(r, a, sig), nil
}
