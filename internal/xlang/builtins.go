package xlang

import (
	"context"
	"fmt"
	"sort"

	"xst/internal/algebra"
	"xst/internal/core"
	"xst/internal/process"
	"xst/internal/spaces"
)

// builtin is a named operation callable from expressions. The context
// lets long-running operations (cross products, closures) honor query
// deadlines; cheap builtins ignore it.
type builtin struct {
	name  string
	arity int
	doc   string
	fn    func(ctx context.Context, pos int, args []core.Value) (core.Value, error)
}

// Builtins returns the names and one-line docs of every builtin, sorted,
// for the REPL's help output.
func Builtins() []string {
	out := make([]string, 0, len(builtins))
	for name, b := range builtins {
		out = append(out, fmt.Sprintf("%s/%d — %s", name, b.arity, b.doc))
	}
	sort.Strings(out)
	return out
}

func set1(pos int, v core.Value, name string) (*core.Set, error) {
	return asSet(pos, v, name+" argument")
}

func sets(pos int, args []core.Value, name string) ([]*core.Set, error) {
	out := make([]*core.Set, len(args))
	for i, a := range args {
		role := fmt.Sprintf("%s argument %d", name, i+1)
		if len(args) == 1 {
			role = name + " argument" // as set1 names it
		}
		s, err := asSet(pos, a, role)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

var builtins = map[string]builtin{
	"union": {"union", 2, "A + B", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		ss, err := sets(pos, a, "union")
		if err != nil {
			return nil, err
		}
		return core.Union(ss[0], ss[1]), nil
	}},
	"intersect": {"intersect", 2, "A & B", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		ss, err := sets(pos, a, "intersect")
		if err != nil {
			return nil, err
		}
		return core.Intersect(ss[0], ss[1]), nil
	}},
	"diff": {"diff", 2, "A ~ B", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		ss, err := sets(pos, a, "diff")
		if err != nil {
			return nil, err
		}
		return core.Diff(ss[0], ss[1]), nil
	}},
	"symdiff": {"symdiff", 2, "(A~B)+(B~A)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		ss, err := sets(pos, a, "symdiff")
		if err != nil {
			return nil, err
		}
		return core.SymDiff(ss[0], ss[1]), nil
	}},
	"card": {"card", 1, "classical cardinality", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "card")
		if err != nil {
			return nil, err
		}
		return core.Int(core.Card(s)), nil
	}},
	"len": {"len", 1, "membership-fact count", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "len")
		if err != nil {
			return nil, err
		}
		return core.Int(s.Len()), nil
	}},
	"power": {"power", 1, "powerset", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "power")
		if err != nil {
			return nil, err
		}
		if s.Len() > 16 {
			return nil, evalErr(pos, "power: set too large (%d members)", s.Len())
		}
		return core.Powerset(s), nil
	}},
	"sing": {"sing", 1, "singleton test", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		return core.Bool(core.Singleton(a[0])), nil
	}},
	"tup": {"tup", 1, "tuple length or -1", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		if n, ok := core.TupLen(a[0]); ok {
			return core.Int(n), nil
		}
		return core.Int(-1), nil
	}},
	"concat": {"concat", 2, "tuple concatenation (Def 9.2)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		z, ok := core.Concat(a[0], a[1])
		if !ok {
			return nil, evalErr(pos, "concat: operands must be tuples")
		}
		return z, nil
	}},
	"rescope_scope": {"rescope_scope", 2, "A^{/σ/} (Def 7.3)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[1], "rescope_scope σ")
		if err != nil {
			return nil, err
		}
		return algebra.ReScopeByScope(a[0], s), nil
	}},
	"rescope_elem": {"rescope_elem", 2, "A^{\\σ\\} (Def 7.5)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[1], "rescope_elem σ")
		if err != nil {
			return nil, err
		}
		return algebra.ReScopeByElem(a[0], s), nil
	}},
	"dom":  {"dom", 2, "σ-domain 𝔇_σ(R) (Def 7.4)", nil},
	"dom1": {"dom1", 1, "CST 1-domain", nil},
	"dom2": {"dom2", 1, "CST 2-domain", nil},
	"restrict": {"restrict", 3, "R |_σ A (Def 7.6)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		ss, err := sets(pos, a, "restrict")
		if err != nil {
			return nil, err
		}
		return algebra.SigmaRestrict(ss[0], ss[1], ss[2]), nil
	}},
	"image": {"image", 4, "R[A]_{⟨σ1,σ2⟩} (Def 7.1)", nil},
	"cross": {"cross", 2, "A ⊗ B (Def 9.3)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		ss, err := sets(pos, a, "cross")
		if err != nil {
			return nil, err
		}
		return algebra.CrossProductCtx(ctx, ss[0], ss[1])
	}},
	"cartesian": {"cartesian", 2, "A × B (Def 9.7)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		ss, err := sets(pos, a, "cartesian")
		if err != nil {
			return nil, err
		}
		return algebra.CartesianCtx(ctx, ss[0], ss[1])
	}},
	"tag": {"tag", 2, "A^(t) (Def 9.5/9.6)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "tag")
		if err != nil {
			return nil, err
		}
		return algebra.Tag(s, a[1]), nil
	}},
	"value": {"value", 1, "𝒱(x) (Def 9.9)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "value")
		if err != nil {
			return nil, err
		}
		v, ok := algebra.ClassicalValue(s)
		if !ok {
			return nil, evalErr(pos, "value: undefined")
		}
		return v, nil
	}},
	"value_at": {"value_at", 2, "𝒱_σ(x) (Def 9.8)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "value_at")
		if err != nil {
			return nil, err
		}
		v, ok := algebra.SigmaValue(s, a[1])
		if !ok {
			return nil, evalErr(pos, "value_at: undefined")
		}
		return v, nil
	}},
	"relprod": {"relprod", 6, "F /_{⟨σ1,σ2⟩}^{⟨ω1,ω2⟩} G (Def 10.1)", nil},
	"compose": {"compose", 2, "g∘f for standard pair processes (Def 11.1)", nil},
	"id": {"id", 1, "identity carrier on A", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "id")
		if err != nil {
			return nil, err
		}
		return process.Identity(s).F, nil
	}},
	"is_function": {"is_function", 1, "Def 8.2 under standard σ", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "is_function")
		if err != nil {
			return nil, err
		}
		return core.Bool(process.Std(s).IsFunction()), nil
	}},
	"is_injective": {"is_injective", 1, "Def 6.3 under standard σ", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "is_injective")
		if err != nil {
			return nil, err
		}
		return core.Bool(process.Std(s).IsInjective()), nil
	}},
	"domset": {"domset", 1, "𝔇_{σ1} under standard σ", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "domset")
		if err != nil {
			return nil, err
		}
		return process.Std(s).DomainSet(), nil
	}},
	"codset": {"codset", 1, "𝔇_{σ2} under standard σ", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "codset")
		if err != nil {
			return nil, err
		}
		return process.Std(s).CodomainSet(), nil
	}},
	"at": {"at", 2, "tuple component t[i] (1-based)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		i, ok := a[1].(core.Int)
		if !ok {
			return nil, evalErr(pos, "at: index must be an integer")
		}
		elems, ok := core.TupleElems(a[0])
		if !ok {
			return nil, evalErr(pos, "at: first argument must be a tuple")
		}
		if i < 1 || int(i) > len(elems) {
			return nil, evalErr(pos, "at: index %d out of range 1..%d", i, len(elems))
		}
		return elems[i-1], nil
	}},
	"elems": {"elems", 1, "distinct elements of A (scopes dropped)", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "elems")
		if err != nil {
			return nil, err
		}
		return core.S(s.Elems()...), nil
	}},
	"scopes": {"scopes", 1, "distinct scopes of A", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "scopes")
		if err != nil {
			return nil, err
		}
		return core.S(s.Scopes()...), nil
	}},
	"classify": {"classify", 3, "space profile of f: A→B under standard σ", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		ss, err := sets(pos, a, "classify")
		if err != nil {
			return nil, err
		}
		pr := spaces.Classify(process.Std(ss[0]), ss[1], ss[2])
		b := core.NewBuilder(6)
		add := func(name string, v bool) { b.Add(core.Bool(v), core.Str(name)) }
		add("in_space", pr.InSpace)
		add("on", pr.On)
		add("onto", pr.Onto)
		add("many_to_one", pr.ManyToOne)
		add("one_to_many", pr.OneToMany)
		add("function", pr.IsFunction())
		return b.Set(), nil
	}},
	"bigunion": {"bigunion", 1, "⋃A — union of set elements", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "bigunion")
		if err != nil {
			return nil, err
		}
		return algebra.BigUnion(s), nil
	}},
	"tclose": {"tclose", 1, "transitive closure R⁺ of a pair set", nil},
	"rtclose": {"rtclose", 1, "reflexive transitive closure R*", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		s, err := set1(pos, a[0], "rtclose")
		if err != nil {
			return nil, err
		}
		return algebra.ReflexiveTransitiveClosureCtx(ctx, s)
	}},
	"inverse": {"inverse", 1, "swap pair components: {⟨y,x⟩ : ⟨x,y⟩ ∈ R}", nil},
	"pos": {"pos", -1, "positions scope set ⟨p1,…,pn⟩", func(ctx context.Context, pos int, a []core.Value) (core.Value, error) {
		ps := make([]int, len(a))
		for i, v := range a {
			n, ok := v.(core.Int)
			if !ok {
				return nil, evalErr(pos, "pos: arguments must be integers")
			}
			ps[i] = int(n)
		}
		return algebra.Positions(ps...), nil
	}},
}

// derivers are the builtins whose entry above has no fn: each runs an
// algebra kernel up to its outputs, derived but not built, so that a
// call builds them and card of a call counts them.
var derivers = map[string]func(ss []*core.Set) *algebra.Derived{
	"dom":     func(ss []*core.Set) *algebra.Derived { return algebra.DeriveSigmaDomain(ss[0], ss[1]) },
	"dom1":    func(ss []*core.Set) *algebra.Derived { return algebra.DeriveSigmaDomain(ss[0], algebra.StdSigma().S1) },
	"dom2":    func(ss []*core.Set) *algebra.Derived { return algebra.DeriveSigmaDomain(ss[0], algebra.StdSigma().S2) },
	"inverse": func(ss []*core.Set) *algebra.Derived { return algebra.DeriveSigmaDomain(ss[0], swap) },
	"image": func(ss []*core.Set) *algebra.Derived {
		return algebra.DeriveImage(ss[0], ss[1], algebra.NewSigma(ss[2], ss[3]))
	},
	"relprod": func(ss []*core.Set) *algebra.Derived {
		return algebra.DeriveRelativeProduct(ss[0], ss[1], algebra.NewSigma(ss[2], ss[3]), algebra.NewSigma(ss[4], ss[5]))
	},
	// compose(g, f) is process.StdCompose(Std(g), Std(f)): f/g.
	"compose": func(ss []*core.Set) *algebra.Derived {
		return algebra.DeriveRelativeProduct(ss[1], ss[0], algebra.CSTSpec().Sigma, algebra.CSTSpec().Omega)
	},
	"tclose": func(ss []*core.Set) *algebra.Derived { return algebra.DeriveTransitiveClosure(ss[0]) },
}

// swap is ⟨2,1⟩, the scope set inverse re-scopes through.
var swap = algebra.Positions(2, 1)

func (st *stmt) call(ctx context.Context, x *callNode) (core.Value, error) {
	if x.name == "card" && len(x.args) == 1 { // counted, never built, when it can be
		if u, ok := x.args[0].(*binNode); ok && (u.op == tokPlus || u.op == tokAmp) {
			return st.bin(ctx, u, true)
		}
		if n, ok, err := st.derived(ctx, x.args[0], true); ok {
			return n, err
		}
	}
	b, args, err := st.args(ctx, x)
	if err != nil {
		return nil, err
	}
	return b.fn(ctx, x.at, args)
}

// args looks x's builtin up, checks its arity and evaluates its
// arguments.
func (st *stmt) args(ctx context.Context, x *callNode) (builtin, []core.Value, error) {
	b, ok := builtins[x.name]
	if !ok {
		return b, nil, evalErr(x.at, "unknown builtin %q (try one of: union, image, dom, restrict, relprod, …)", x.name)
	}
	if b.arity >= 0 && len(x.args) != b.arity {
		return b, nil, evalErr(x.at, "%s expects %d arguments, found %d", x.name, b.arity, len(x.args))
	}
	args := make([]core.Value, len(x.args))
	for i, a := range x.args {
		v, err := st.eval(ctx, a)
		if err != nil {
			return b, nil, err
		}
		args[i] = v
	}
	return b, args, nil
}

// derived evaluates n, a deriver's call or an image, through its
// kernel's derivation: built, or with count, counted. ok is false for
// any other node.
func (st *stmt) derived(ctx context.Context, n node, count bool) (v core.Value, ok bool, err error) {
	var d *algebra.Derived
	switch x := n.(type) {
	case *callNode:
		derive := derivers[x.name]
		if derive == nil {
			return nil, false, nil
		}
		_, args, err := st.args(ctx, x)
		if err != nil {
			return nil, true, err
		}
		ss, err := sets(x.at, args, x.name)
		if err != nil {
			return nil, true, err
		}
		d = derive(ss)
	case *imageNode:
		if d, err = st.image(ctx, x); err != nil {
			return nil, true, err
		}
	default:
		return nil, false, nil
	}
	if count {
		c, err := d.Card(ctx)
		if err != nil {
			return nil, true, err
		}
		return core.Int(c), true, nil
	}
	s, err := d.Set(ctx)
	if err != nil {
		return nil, true, err
	}
	return s, true, nil
}
