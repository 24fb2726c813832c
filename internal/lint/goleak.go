package lint

import (
	"go/ast"
	"go/types"
)

// goleakPkgs are the packages whose goroutines must be provably
// bounded: the concurrent execution core, the federation layer's
// workers, and the serving loop.
var goleakPkgs = []string{
	"xst/internal/exec",
	"xst/internal/fed",
	"xst/internal/server",
}

// GoLeakAnalyzer turns Gather's drain+join discipline into a checked
// contract: every `go` statement in internal/{exec,fed,server} must be
// joined or cancel-bounded, so no query can strand a goroutine. A spawn
// is accepted when its body (or, for `go x.m()`, the named callee —
// resolved in-package or through the interprocedural summaries) shows
// one of three shapes:
//
//   - it calls Done on a sync.WaitGroup that is Wait-ed on — in the
//     same function for a local WaitGroup, anywhere in the package for
//     a receiver field (Serve's per-connection workers joined by
//     Shutdown);
//   - it closes a channel that is received from or ranged over — same
//     function for locals, anywhere in the package for fields
//     (Gather's closer goroutine feeding Next and Close's drain);
//   - it selects on <-ctx.Done(), so cancellation bounds its lifetime.
//
// Facts inside nested `go` statements don't count: a goroutine is not
// joined because it spawns joined goroutines of its own.
var GoLeakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc:  "flags goroutines in exec/fed/server that are neither joined (WaitGroup, channel drain) nor bounded by a ctx-done select",
	Run:  runGoLeak,
}

func runGoLeak(pass *Pass) error {
	if !pathMatches(pass.Pkg.Path(), goleakPkgs...) {
		return nil
	}
	decls := packageDecls(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !pass.goroutineBounded(g, fn, decls) {
					pass.Reportf(g.Pos(),
						"goroutine is neither joined (WaitGroup/channel drain) nor bounded by a ctx-done select; a stuck worker outlives its query")
				}
				return true
			})
		}
	}
	return nil
}

// packageDecls indexes the package's function declarations by object,
// so `go s.run()` can be resolved to run's body.
func packageDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj := pass.Info.Defs[fn.Name]; obj != nil {
					decls[obj] = fn
				}
			}
		}
	}
	return decls
}

// goroutineBounded decides whether the spawned goroutine is joined or
// cancel-bounded. owner is the function declaration lexically containing
// the go statement (where local WaitGroups and channels must be joined).
func (p *Pass) goroutineBounded(g *ast.GoStmt, owner *ast.FuncDecl, decls map[types.Object]*ast.FuncDecl) bool {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return p.bodyBounded(lit.Body, owner)
	}
	// go f(...) / go x.m(...): the named callee is the goroutine body.
	if fobj := staticCallee(p.Info, g.Call); fobj != nil {
		if fd, ok := decls[fobj]; ok {
			return p.bodyBounded(fd.Body, fd)
		}
	}
	// Cross-package callee: fall back to its summary.
	if p.Summaries != nil {
		if sum := p.Summaries.ForCall(p.Info, g.Call); sum != nil {
			return p.summaryBounded(sum)
		}
	}
	return false
}

// bodyBounded checks one goroutine body for a bounding shape.
func (p *Pass) bodyBounded(body *ast.BlockStmt, owner *ast.FuncDecl) bool {
	bounded := false
	inspectSync(body, func(n ast.Node) bool {
		if bounded {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil && recvFromCtxDone(p.Info, cc.Comm) {
					bounded = true
				}
			}
		case *ast.CallExpr:
			recv, name := calleeName(x)
			switch {
			case name == "Done" && recv != nil:
				if tv, ok := p.Info.Types[recv]; ok && namedIn(tv.Type, "WaitGroup", "sync") {
					if p.wgJoined(recv, owner) {
						bounded = true
					}
				}
			case name == "close" && recv == nil && len(x.Args) == 1:
				if p.chanDrained(x.Args[0], owner) {
					bounded = true
				}
			default:
				// One level of delegation: the body hands its work to a
				// named function whose summary shows a bounding shape.
				if p.Summaries != nil {
					if sum := p.Summaries.ForCall(p.Info, x); sum != nil && p.summaryBounded(sum) {
						bounded = true
					}
				}
			}
		}
		return !bounded
	})
	return bounded
}

// summaryBounded evaluates the bounding shapes against a callee summary.
func (p *Pass) summaryBounded(sum *FuncSummary) bool {
	if sum.CtxDoneSelect {
		return true
	}
	for _, k := range sum.WgDones {
		if p.Summaries.AnyWaitsOn(k) {
			return true
		}
	}
	for _, k := range sum.ClosesChans {
		if p.Summaries.AnyReceivesChan(k) {
			return true
		}
	}
	return false
}

// wgJoined reports whether the WaitGroup expression is waited on: a
// receiver field anywhere in the package (via the summary index), a
// local variable in the owning function.
func (p *Pass) wgJoined(wg ast.Expr, owner *ast.FuncDecl) bool {
	if k := fieldKey(p.Info, wg); k != "" {
		return p.Summaries != nil && p.Summaries.AnyWaitsOn(k)
	}
	id, ok := ast.Unparen(wg).(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	waited := false
	ast.Inspect(owner.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !waited
		}
		if recv, name := calleeName(call); name == "Wait" && recv != nil && isObj(p.Info, recv, obj) {
			waited = true
		}
		return !waited
	})
	return waited
}

// chanDrained reports whether the closed channel is received from or
// ranged over: a field anywhere in the package, a local in the owner.
func (p *Pass) chanDrained(ch ast.Expr, owner *ast.FuncDecl) bool {
	if k := fieldKey(p.Info, ch); k != "" {
		return p.Summaries != nil && p.Summaries.AnyReceivesChan(k)
	}
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	drained := false
	ast.Inspect(owner.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" && isObj(p.Info, x.X, obj) {
				drained = true
			}
		case *ast.RangeStmt:
			if isObj(p.Info, x.X, obj) {
				drained = true
			}
		}
		return !drained
	})
	return drained
}
