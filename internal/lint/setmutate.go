package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// corePkg lists the package(s) whose canonical-slice contract setmutate
// enforces.
var corePkg = []string{"xst/internal/core"}

// accessors are the (*core.Set) methods that hand out canonical internal
// slices (or slices of shared Values) without copying.
var accessors = map[string]bool{
	"Members":    true,
	"Elems":      true,
	"Scopes":     true,
	"MembersOf":  true,
	"ElemsUnder": true,
}

// SetMutateAnalyzer enforces the zero-copy contract of the canonical
// accessors: a slice obtained from (*core.Set).Members/MembersOf/Elems/
// Scopes/ElemsUnder must never be written to, appended to, sorted in
// place (sort.Slice, core.Canonicalize, (*core.Slab).Set), or retained
// in a longer-lived structure — the backing array IS the set's canonical
// identity, and a single write silently breaks Equal/Compare/Digest for
// every alias. It also enforces the ownership transfer of core.OwnSet
// (and, inside internal/core, of ownSet and a splatted NewSet): a slice
// handed over must not be mutated afterwards.
var SetMutateAnalyzer = &Analyzer{
	Name: "setmutate",
	Doc:  "flags mutation or retention of canonical slices returned by (*core.Set) accessors, and use of a slice after ownSet takes ownership",
	Run:  runSetMutate,
}

func runSetMutate(pass *Pass) error {
	inCore := pathMatches(pass.Pkg.Path(), corePkg...)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sm := &setMutate{pass: pass, inCore: inCore,
				tainted: map[types.Object]string{}, moved: map[types.Object]string{}}
			sm.stmts(fn.Body.List)
		}
	}
	return nil
}

// setMutate walks one function body in source order, tracking which slice
// variables alias canonical internals (tainted) and which were handed to
// ownSet (moved).
type setMutate struct {
	pass    *Pass
	inCore  bool
	tainted map[types.Object]string // object → accessor it came from
	moved   map[types.Object]string // object → owner it was passed to
}

// accessorCall returns the accessor name when call is s.Members() etc. on
// a core.Set receiver.
func (sm *setMutate) accessorCall(call *ast.CallExpr) (string, bool) {
	recv, name := calleeName(call)
	if recv == nil || !accessors[name] {
		return "", false
	}
	tv, ok := sm.pass.Info.Types[recv]
	if !ok || !namedIn(tv.Type, "Set", corePkg...) {
		return "", false
	}
	return name, true
}

// taintSource returns the accessor behind e when e aliases a canonical
// slice: a direct accessor call, a tainted variable, or a reslice of one.
func (sm *setMutate) taintSource(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return sm.accessorCall(x)
	case *ast.Ident:
		src, ok := sm.tainted[sm.pass.Info.ObjectOf(x)]
		return src, ok
	case *ast.SliceExpr:
		return sm.taintSource(x.X)
	}
	return "", false
}

// baseIdentObj returns the object of e when e is a plain identifier.
func (sm *setMutate) baseIdentObj(e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return sm.pass.Info.ObjectOf(id)
	}
	return nil
}

func (sm *setMutate) stmts(list []ast.Stmt) {
	for _, s := range list {
		sm.stmt(s)
	}
}

func (sm *setMutate) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		for i, lhs := range st.Lhs {
			sm.checkWrite(lhs)
			if len(st.Lhs) == len(st.Rhs) {
				sm.checkRetention(lhs, st.Rhs[i:i+1])
			} else {
				sm.checkRetention(lhs, st.Rhs)
			}
		}
		sm.exprs(st.Rhs)
		// Propagate or clear taint through x := y / x = y.
		if len(st.Lhs) == len(st.Rhs) {
			for i, lhs := range st.Lhs {
				obj := sm.baseIdentObj(lhs)
				if obj == nil {
					continue
				}
				if src, ok := sm.taintSource(st.Rhs[i]); ok {
					sm.tainted[obj] = src
				} else {
					delete(sm.tainted, obj)
				}
				delete(sm.moved, obj)
			}
		}
	case *ast.IncDecStmt:
		sm.checkWrite(st.X)
		sm.exprs([]ast.Expr{st.X})
	case *ast.ExprStmt:
		sm.exprs([]ast.Expr{st.X})
	case *ast.SendStmt:
		if src, ok := sm.taintSource(st.Value); ok {
			sm.pass.Reportf(st.Value.Pos(),
				"canonical slice from (*core.Set).%s sent over a channel; copy it first", src)
		}
		sm.exprs([]ast.Expr{st.Chan, st.Value})
	case *ast.ReturnStmt:
		sm.exprs(st.Results)
	case *ast.DeferStmt:
		sm.exprs([]ast.Expr{st.Call})
	case *ast.GoStmt:
		sm.exprs([]ast.Expr{st.Call})
	case *ast.BlockStmt:
		sm.stmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			sm.stmt(st.Init)
		}
		sm.exprs([]ast.Expr{st.Cond})
		sm.stmt(st.Body)
		if st.Else != nil {
			sm.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			sm.stmt(st.Init)
		}
		if st.Cond != nil {
			sm.exprs([]ast.Expr{st.Cond})
		}
		sm.stmt(st.Body)
		if st.Post != nil {
			sm.stmt(st.Post)
		}
	case *ast.RangeStmt:
		sm.exprs([]ast.Expr{st.X})
		sm.stmt(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			sm.stmt(st.Init)
		}
		if st.Tag != nil {
			sm.exprs([]ast.Expr{st.Tag})
		}
		sm.stmt(st.Body)
	case *ast.TypeSwitchStmt:
		sm.stmt(st.Body)
	case *ast.SelectStmt:
		sm.stmt(st.Body)
	case *ast.CaseClause:
		sm.exprs(st.List)
		sm.stmts(st.Body)
	case *ast.CommClause:
		if st.Comm != nil {
			sm.stmt(st.Comm)
		}
		sm.stmts(st.Body)
	case *ast.LabeledStmt:
		sm.stmt(st.Stmt)
	}
}

// exprs scans expressions for mutating calls and for function literals,
// whose bodies share the surrounding taint state (captured variables).
func (sm *setMutate) exprs(list []ast.Expr) {
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				sm.call(x)
			case *ast.FuncLit:
				sm.stmts(x.Body.List)
				return false
			}
			return true
		})
	}
}

// call checks one call expression for mutation sinks.
func (sm *setMutate) call(call *ast.CallExpr) {
	recv, name := calleeName(call)

	// Builtins that write through their first argument.
	if recv == nil && (name == "append" || name == "copy") && len(call.Args) > 0 {
		if src, ok := sm.taintSource(call.Args[0]); ok {
			sm.pass.Reportf(call.Pos(),
				"%s writes into the canonical slice from (*core.Set).%s; copy it first", name, src)
		}
		if obj := sm.baseIdentObj(call.Args[0]); obj != nil {
			if owner, ok := sm.moved[obj]; ok {
				sm.pass.Reportf(call.Pos(),
					"%s mutates a slice already passed to %s, which owns it", name, owner)
			}
		}
		return
	}

	// sort.Slice / sort.SliceStable, core.Canonicalize and a Slab's Set
	// sort their argument in place.
	if (isPkgCall(sm.pass.Info, call, "sort", "Slice", "SliceStable") ||
		isPkgCall(sm.pass.Info, call, corePkg[0], "Canonicalize") || sm.slabSet(recv, name)) && len(call.Args) > 0 {
		if src, ok := sm.taintSource(call.Args[0]); ok {
			sm.pass.Reportf(call.Pos(),
				"in-place sort of the canonical slice from (*core.Set).%s; copy it first", src)
		}
		if obj := sm.baseIdentObj(call.Args[0]); obj != nil {
			if owner, ok := sm.moved[obj]; ok {
				sm.pass.Reportf(call.Pos(),
					"in-place sort of a slice already passed to %s, which owns it", owner)
			}
		}
		return
	}

	// Ownership transfer: core.OwnSet(ms) — inside internal/core also
	// ownSet(ms) and the splat form NewSet(ms...) — canonicalizes in place
	// and keeps ms.
	owns := isPkgCall(sm.pass.Info, call, corePkg[0], "OwnSet") ||
		sm.inCore && recv == nil && (name == "ownSet" || name == "OwnSet" || (name == "NewSet" && call.Ellipsis != token.NoPos))
	if owns && len(call.Args) == 1 {
		if src, ok := sm.taintSource(call.Args[0]); ok {
			sm.pass.Reportf(call.Pos(),
				"canonical slice from (*core.Set).%s passed to %s, which canonicalizes in place", src, name)
		}
		if obj := sm.baseIdentObj(call.Args[0]); obj != nil {
			if owner, ok := sm.moved[obj]; ok {
				sm.pass.Reportf(call.Pos(),
					"slice passed to %s was already handed to %s", name, owner)
			} else {
				sm.moved[obj] = name
			}
		}
	}
}

// slabSet reports whether recv.name is (*core.Slab).Set.
func (sm *setMutate) slabSet(recv ast.Expr, name string) bool {
	if recv == nil || name != "Set" {
		return false
	}
	tv, ok := sm.pass.Info.Types[recv]
	return ok && namedIn(tv.Type, "Slab", corePkg...)
}

// checkWrite flags assignments that write through a canonical slice:
// ms[i] = x, ms[i].Elem = x, s.Members()[0] = x, ms[i]++ …
func (sm *setMutate) checkWrite(lhs ast.Expr) {
	for {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			if src, ok := sm.taintSource(x.X); ok {
				sm.pass.Reportf(lhs.Pos(),
					"write through the canonical slice from (*core.Set).%s; sets are immutable — build a new one", src)
				return
			}
			if obj := sm.baseIdentObj(x.X); obj != nil {
				if owner, ok := sm.moved[obj]; ok {
					sm.pass.Reportf(lhs.Pos(),
						"write through a slice already passed to %s, which owns it", owner)
					return
				}
			}
			lhs = x.X
		case *ast.SelectorExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		default:
			return
		}
	}
}

// checkRetention flags stores of a canonical slice into struct fields or
// maps — aliases that outlive the statement and defeat the no-retain rule.
func (sm *setMutate) checkRetention(lhs ast.Expr, rhs []ast.Expr) {
	var retained bool
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		// Field store: x.f = ms. Only flag when f really is a field.
		if sel, ok := sm.pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			retained = true
		}
	case *ast.IndexExpr:
		if tv, ok := sm.pass.Info.Types[x.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				retained = true
			}
		}
	}
	if !retained {
		return
	}
	for _, r := range rhs {
		if src, ok := sm.taintSource(r); ok {
			sm.pass.Reportf(r.Pos(),
				"canonical slice from (*core.Set).%s retained in a field or map; copy it first", src)
		}
	}
}
