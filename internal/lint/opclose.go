package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// opclosePkgs are the layers that build and drive operator trees: the
// compiler's unwinds, the federation's fragment teardown, the executor
// and the server's query path.
var opclosePkgs = []string{
	"xst/internal/plan",
	"xst/internal/fed",
	"xst/internal/exec",
	"xst/internal/server",
	"xst/internal/index",
}

// OpCloseAnalyzer enforces the operator lifecycle: a locally-created
// exec.Operator (any value whose method set has Open/Next/Close) must,
// on every path out of the function, be Closed, escape (returned,
// stored into a struct, passed to an owning constructor), or be handed
// to one of the sanctioned drivers — exec.Drain/Stream/Collect/Count close
// their operator on all paths, a fact the summary layer knows and
// propagates to wrappers. The paths that slip through review are
// exactly the compile-error unwinds in internal/plan and fragment
// teardown in internal/fed, where an early error return abandons
// half-built children.
//
// Methods on operator types themselves are exempt: the Operator
// contract makes a parent's Close responsible for its children, so
// child handling inside the tree follows a different (recursive)
// discipline.
//
// A `defer op.Close()` inside a loop is flagged even though it
// technically covers every path: per-iteration operators pile up until
// function exit, which is a leak in slow motion.
var OpCloseAnalyzer = &Analyzer{
	Name: "opclose",
	Doc:  "flags locally-created exec.Operators not closed or released on every return path, and defer-in-loop closes",
	Run:  runOpClose,
}

func runOpClose(pass *Pass) error {
	if !pathMatches(pass.Pkg.Path(), opclosePkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		parents := parentMap(f)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Recv != nil && isOperatorMethod(pass, fn) {
				continue
			}
			pass.checkLifecycles(fn, parents, isOperatorType, "operator",
				"operator %s is not closed on every return path; Close it on error unwinds or hand it to exec.Drain/Stream/Collect")
		}
	}
	return nil
}

// isOperatorMethod reports a method declared on an operator type.
func isOperatorMethod(pass *Pass, fn *ast.FuncDecl) bool {
	obj := pass.Info.Defs[fn.Name]
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isOperatorType(sig.Recv().Type())
}

// isOperatorType reports whether t's method set (value or pointer)
// contains Open, Next and Close — the structural Operator shape, so
// fixtures and future operator types qualify without importing exec.
func isOperatorType(t types.Type) bool {
	if t == nil {
		return false
	}
	has := func(ms *types.MethodSet) bool {
		found := 0
		for _, name := range []string{"Open", "Next", "Close"} {
			for i := 0; i < ms.Len(); i++ {
				if ms.At(i).Obj().Name() == name {
					found++
					break
				}
			}
		}
		return found == 3
	}
	if has(types.NewMethodSet(t)) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return has(types.NewMethodSet(types.NewPointer(t)))
	}
	return false
}

// acquisition is one tracked resource binding: a variable assigned from
// a call returning a resource type. errObj is the error bound by the
// same assignment, when there is one: a return that propagates that
// error is a path on which the resource was never live (the idiomatic
// `op, err := f(); if err != nil { return err }`), so it needs no
// release.
type acquisition struct {
	obj    types.Object
	errObj types.Object
	stmt   ast.Stmt // the assignment, for CFG queries
	name   string
}

// checkLifecycles finds resource acquisitions in fn (matching the type
// predicate) and reports any not released on every exit path, plus
// defer-in-loop releases. Shared by opclose and connclose.
func (p *Pass) checkLifecycles(fn *ast.FuncDecl, parents map[ast.Node]ast.Node, isRes func(types.Type) bool, kind, msg string) {
	p.checkLifecyclesRel(fn, parents, isRes, kind, msg, nil)
}

// checkLifecyclesRel is checkLifecycles with an extra release predicate:
// extra(st, obj) reporting true means st ends obj's lifecycle even
// though the summary layer would not recognize it (txnend's
// Commit/Abort, which are not Close-shaped). A nil extra restores the
// plain behavior.
func (p *Pass) checkLifecyclesRel(fn *ast.FuncDecl, parents map[ast.Node]ast.Node, isRes func(types.Type) bool, kind, msg string, extra func(ast.Stmt, types.Object) bool) {
	cfg := buildCFG(fn.Body)
	var acqs []acquisition
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// Only track acquisitions in the function's own frame: closures
		// have their own lifecycles and their statements aren't in this
		// CFG.
		if enclosingFunc(parents, as) != ast.Node(fn) {
			return true
		}
		for _, obj := range resourceBindings(p.Info, as, isRes) {
			// A rebinding of a parameter or prior variable is still an
			// acquisition of the *new* value; track each assignment.
			acqs = append(acqs, acquisition{obj: obj, errObj: errSibling(p.Info, as), stmt: as, name: obj.Name()})
		}
		return true
	})
	for _, acq := range acqs {
		acq := acq
		rel := func(st ast.Stmt) bool {
			if extra != nil && extra(st, acq.obj) {
				return true
			}
			if p.Summaries != nil && p.Summaries.ReleasesIn(p.Info, st, acq.obj) {
				return true
			}
			// Propagating the acquisition's own error: the resource is
			// nil on this path.
			if ret, ok := st.(*ast.ReturnStmt); ok && acq.errObj != nil {
				for _, r := range ret.Results {
					if exprUsesObject(p.Info, r, acq.errObj) {
						return true
					}
				}
			}
			// Any statement inside an `if err != nil` body tests a region
			// where the resource is statically nil (the Accept/Dial
			// contract), so paths through it owe no release even when the
			// return swaps in a different error.
			if acq.errObj != nil && underNonNilErrGuard(p.Info, parents, st, acq.errObj) {
				return true
			}
			return false
		}
		if !cfg.everyPathSatisfies(acq.stmt, rel) {
			p.Reportf(acq.stmt.Pos(), msg, acq.name)
			continue
		}
		p.checkDeferInLoop(fn, parents, acq, kind)
		if reacquiredWithoutRelease(cfg, acq.stmt, rel) {
			p.Reportf(acq.stmt.Pos(),
				"%s %s is reassigned on a loop path without being closed first; the previous value leaks", kind, acq.name)
		}
	}
}

// resourceBindings returns the fresh variables bound to resource-typed
// call results in the assignment (handles both `op := f()` and
// multi-value `op, err := f()`).
func resourceBindings(info *types.Info, as *ast.AssignStmt, isRes func(types.Type) bool) []types.Object {
	var out []types.Object
	bind := func(lhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil || !isRes(obj.Type()) {
			return
		}
		out = append(out, obj)
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if _, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			for _, l := range as.Lhs {
				bind(l)
			}
		}
		return out
	}
	for i, r := range as.Rhs {
		if _, ok := ast.Unparen(r).(*ast.CallExpr); !ok || i >= len(as.Lhs) {
			continue
		}
		bind(as.Lhs[i])
	}
	return out
}

// underNonNilErrGuard reports whether n sits inside the body of an
// `if errObj != nil` statement: in that region the paired resource is
// statically nil, so no release is owed.
func underNonNilErrGuard(info *types.Info, parents map[ast.Node]ast.Node, n ast.Node, errObj types.Object) bool {
	for p := parents[n]; p != nil; p = parents[p] {
		ifs, ok := p.(*ast.IfStmt)
		if !ok {
			continue
		}
		if n.Pos() < ifs.Body.Pos() || n.End() > ifs.Body.End() {
			continue // in the condition or else branch, err may be nil
		}
		cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || cond.Op != token.NEQ {
			continue
		}
		if (isObj(info, cond.X, errObj) && isNilExpr(info, cond.Y)) ||
			(isObj(info, cond.Y, errObj) && isNilExpr(info, cond.X)) {
			return true
		}
	}
	return false
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// errSibling returns the error-typed variable bound by the assignment,
// if any (`op, err := f()` → err).
func errSibling(info *types.Info, as *ast.AssignStmt) types.Object {
	for _, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			continue
		}
		if named, ok := obj.Type().(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return obj
		}
	}
	return nil
}

// checkDeferInLoop flags a deferred release of a per-iteration resource:
// both the acquisition and its deferred close sit inside the same loop,
// so releases accumulate until function exit.
func (p *Pass) checkDeferInLoop(fn *ast.FuncDecl, parents map[ast.Node]ast.Node, acq acquisition, kind string) {
	loop := enclosingLoop(parents, acq.stmt, fn)
	if loop == nil {
		return
	}
	ast.Inspect(loop, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		recv, name := calleeName(def.Call)
		if (name == "Close" || name == "close") && recv != nil && isObj(p.Info, recv, acq.obj) {
			p.Reportf(def.Pos(),
				"defer %s.Close() inside a loop releases nothing until the function returns; close the %s at the end of each iteration", acq.name, kind)
			return false
		}
		return true
	})
}

// enclosingLoop returns the innermost for/range statement containing n
// within fn, or nil.
func enclosingLoop(parents map[ast.Node]ast.Node, n ast.Node, fn *ast.FuncDecl) ast.Node {
	for p := parents[n]; p != nil && p != ast.Node(fn); p = parents[p] {
		switch p.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return p
		case *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// reacquiredWithoutRelease reports whether some CFG path re-executes the
// acquisition without passing a release in between — the retry-loop
// shape that abandons the previous resource.
func reacquiredWithoutRelease(cfg *funcCFG, acq ast.Stmt, rel func(ast.Stmt) bool) bool {
	start, ok := cfg.blockOf[acq]
	if !ok {
		return false
	}
	idx := -1
	for i, s := range start.stmts {
		if s == acq {
			idx = i
			break
		}
	}
	type state struct {
		blk  *cfgBlock
		from int
	}
	seen := map[*cfgBlock]bool{}
	stack := []state{{start, idx + 1}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		blocked := false
		for i := st.from; i < len(st.blk.stmts); i++ {
			s := st.blk.stmts[i]
			if s == acq {
				return true // looped back to the acquisition unreleased
			}
			if rel(s) {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		for _, s := range st.blk.succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, state{s, 0})
			}
		}
	}
	return false
}
