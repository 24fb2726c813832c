package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxLoopPkgs are the packages whose hot loops must stay cancellable:
// everything the query server's per-query deadline flows through.
var ctxLoopPkgs = []string{
	"xst/internal/algebra",
	"xst/internal/xlang",
	"xst/internal/exec",
	"xst/internal/fed",
	"xst/internal/trace",
	"xst/internal/index",
}

// CtxLoopAnalyzer keeps the deadline guarantees from the serving layer
// from rotting as the algebra grows. In internal/{algebra,xlang,exec,fed,trace,index}
// it enforces two rules:
//
//  1. Inside any function that receives a context.Context, a loop ranging
//     over set members ([]core.Member, []core.Value, []table.Row) must
//     reference the context somewhere in its body — a ctx.Err() poll (the
//     batched steps%N pattern counts) or delegation to a ctx-taking
//     callee. Loops inside function literals are exempt: callbacks run
//     under their caller's polling regime.
//
//  2. An exported non-Ctx function with a Ctx-suffixed sibling must be a
//     pure delegation wrapper — context.Background() plus the FooCtx
//     call and nothing else — and context.Background()/TODO() must not
//     appear anywhere else in these packages. Any real work in a wrapper
//     is work a deadline can never reach.
var CtxLoopAnalyzer = &Analyzer{
	Name: "ctxloop",
	Doc:  "flags member loops without a cancellation check in ctx-taking functions, and non-Ctx wrappers that do more than delegate",
	Run:  runCtxLoop,
}

func runCtxLoop(pass *Pass) error {
	if !pathMatches(pass.Pkg.Path(), ctxLoopPkgs...) {
		return nil
	}

	// Index declared functions by (receiver, name) so wrappers can find
	// their Ctx siblings across the package's files.
	decls := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				decls[recvKey(fn)+"."+fn.Name.Name] = fn
			}
		}
	}

	// validWrappers collects the bodies in which context.Background() is
	// sanctioned.
	validWrappers := map[*ast.FuncDecl]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if !fn.Name.IsExported() || strings.HasSuffix(name, "Ctx") {
				continue
			}
			sibling, ok := decls[recvKey(fn)+"."+name+"Ctx"]
			if !ok {
				continue
			}
			if pass.isPureDelegation(fn, name+"Ctx") {
				validWrappers[fn] = true
			} else {
				pass.Reportf(fn.Pos(),
					"exported wrapper %s must only delegate to %s (declared at %s); any other work is unreachable by a deadline",
					name, name+"Ctx", pass.Fset.Position(sibling.Pos()))
			}
		}
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if ctxObj := ctxParam(pass, fn); ctxObj != nil {
				pass.checkMemberLoops(fn.Body, ctxObj)
			}
			if !validWrappers[fn] {
				pass.checkBackground(fn)
			}
		}
	}
	return nil
}

// recvKey names a method's receiver base type ("" for plain functions).
func recvKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// ctxParam returns the context.Context parameter's object, if any.
func ctxParam(pass *Pass, fn *ast.FuncDecl) types.Object {
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.ObjectOf(name)
			if obj != nil && namedIn(obj.Type(), "Context", "context") {
				return obj
			}
		}
	}
	return nil
}

// checkMemberLoops walks body (skipping function literals) and reports
// member-ranging loops that never touch ctx.
func (p *Pass) checkMemberLoops(body *ast.BlockStmt, ctxObj types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !p.rangesOverMembers(rng.X) {
			return true
		}
		if !p.usesObject(rng.Body, ctxObj) {
			p.Reportf(rng.Pos(),
				"loop over set members in a context-carrying function has no cancellation check; poll %s.Err() (batch with steps%%N if hot)",
				ctxObj.Name())
		}
		return true
	})
}

// rangesOverMembers reports whether e has a set-member element type.
func (p *Pass) rangesOverMembers(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	el := sl.Elem()
	return namedIn(el, "Member", corePkg...) ||
		coreValueType(el) ||
		namedIn(el, "Row", "xst/internal/table")
}

// usesObject reports whether any identifier in n resolves to obj.
func (p *Pass) usesObject(n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// isPureDelegation accepts exactly two wrapper shapes:
//
//	return FooCtx(context.Background(), args…)
//
//	x, _ := FooCtx(context.Background(), args…)
//	return x
func (p *Pass) isPureDelegation(fn *ast.FuncDecl, ctxName string) bool {
	stmts := fn.Body.List
	switch len(stmts) {
	case 1:
		ret, ok := stmts[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return false
		}
		call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
		return ok && p.isDelegationCall(call, ctxName)
	case 2:
		asg, ok := stmts[0].(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return false
		}
		call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
		if !ok || !p.isDelegationCall(call, ctxName) {
			return false
		}
		ret, ok := stmts[1].(*ast.ReturnStmt)
		if !ok {
			return false
		}
		for _, r := range ret.Results {
			if _, ok := ast.Unparen(r).(*ast.Ident); !ok {
				return false
			}
		}
		return true
	}
	return false
}

// isDelegationCall reports whether call is ctxName(context.Background()|
// context.TODO(), …) — possibly through a receiver (p.RunCtx(...)).
func (p *Pass) isDelegationCall(call *ast.CallExpr, ctxName string) bool {
	_, name := calleeName(call)
	if name != ctxName || len(call.Args) == 0 {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	return ok && isPkgCall(p.Info, first, "context", "Background", "TODO")
}

// checkBackground flags context.Background()/TODO() outside sanctioned
// delegation wrappers.
func (p *Pass) checkBackground(fn *ast.FuncDecl) {
	if fn.Body == nil {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && isPkgCall(p.Info, call, "context", "Background", "TODO") {
			p.Reportf(call.Pos(),
				"context.Background() outside a pure delegation wrapper; accept and thread the caller's context instead")
		}
		return true
	})
}
