package lint

import (
	"go/ast"
	"go/types"
)

// lockHeldPkgs are the packages whose critical sections the analyzer
// audits: the layers that hold locks while talking to the network or the
// evaluator.
var lockHeldPkgs = []string{
	"xst/internal/server",
	"xst/internal/catalog",
	"xst/internal/store",
	"xst/internal/fed",
	"xst/internal/trace",
}

// LockHeldAnalyzer enforces lock discipline in the serving path: while a
// sync.Mutex/RWMutex is held, a function must not block on a channel
// send, write to a net.Conn, or evaluate a query via xlang.Eval* — all
// three can stall indefinitely (slow client, full channel, expensive
// query), turning a micro-critical-section into a server-wide convoy.
// The walk is linear and intraprocedural: a Lock()/RLock() call opens a
// critical section, the matching Unlock()/RUnlock() closes it, and a
// deferred unlock holds to the end of the function. Function literals are
// not entered: goroutine and callback bodies run outside the section.
var LockHeldAnalyzer = &Analyzer{
	Name: "lockheld",
	Doc:  "flags channel sends, net.Conn writes, and xlang.Eval* calls while a sync mutex is held",
	Run:  runLockHeld,
}

func runLockHeld(pass *Pass) error {
	if !pathMatches(pass.Pkg.Path(), lockHeldPkgs...) {
		return nil
	}
	connIface := netConnInterface(pass.Pkg)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			lh := &lockHeld{pass: pass, conn: connIface, held: map[string]bool{}}
			lh.stmts(fn.Body.List)
		}
	}
	return nil
}

// netConnInterface resolves the net.Conn interface through the package's
// imports (nil when the package never imports net).
func netConnInterface(pkg *types.Package) *types.Interface {
	for _, imp := range pkg.Imports() {
		if imp.Path() != "net" {
			continue
		}
		if obj, ok := imp.Scope().Lookup("Conn").(*types.TypeName); ok {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				return iface
			}
		}
	}
	return nil
}

type lockHeld struct {
	pass *Pass
	conn *types.Interface
	held map[string]bool // rendered lock expression → held
}

func (lh *lockHeld) anyHeld() (string, bool) {
	for k := range lh.held {
		return k, true
	}
	return "", false
}

// mutexCall decodes m.Lock()/Unlock()/RLock()/RUnlock() on a sync mutex,
// returning the rendered lock expression and the method name.
func (lh *lockHeld) mutexCall(call *ast.CallExpr) (lock, method string, ok bool) {
	recv, name := calleeName(call)
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	if recv == nil {
		return "", "", false
	}
	tv, found := lh.pass.Info.Types[recv]
	if !found {
		return "", "", false
	}
	if !namedIn(tv.Type, "Mutex", "sync") && !namedIn(tv.Type, "RWMutex", "sync") {
		return "", "", false
	}
	src, err := exprText(lh.pass.Fset, recv)
	if err != nil {
		src = "mutex"
	}
	return src, name, true
}

func (lh *lockHeld) stmts(list []ast.Stmt) {
	for _, s := range list {
		lh.stmt(s)
	}
}

func (lh *lockHeld) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if lock, method, ok := lh.mutexCall(call); ok {
				switch method {
				case "Lock", "RLock":
					lh.held[lock] = true
				case "Unlock", "RUnlock":
					delete(lh.held, lock)
				}
				return
			}
		}
		lh.expr(st.X)
	case *ast.DeferStmt:
		if _, method, ok := lh.mutexCall(st.Call); ok && (method == "Unlock" || method == "RUnlock") {
			return // lock intentionally held to end of function
		}
		lh.exprArgs(st.Call)
	case *ast.GoStmt:
		lh.exprArgs(st.Call)
	case *ast.SendStmt:
		if lock, ok := lh.anyHeld(); ok {
			lh.pass.Reportf(st.Pos(),
				"channel send while %s is held can block the critical section; move it outside the lock", lock)
		}
		lh.expr(st.Chan)
		lh.expr(st.Value)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			lh.expr(e)
		}
		for _, e := range st.Lhs {
			lh.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			lh.expr(e)
		}
	case *ast.IncDecStmt:
		lh.expr(st.X)
	case *ast.BlockStmt:
		lh.stmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			lh.stmt(st.Init)
		}
		lh.expr(st.Cond)
		lh.stmt(st.Body)
		if st.Else != nil {
			lh.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			lh.stmt(st.Init)
		}
		if st.Cond != nil {
			lh.expr(st.Cond)
		}
		lh.stmt(st.Body)
		if st.Post != nil {
			lh.stmt(st.Post)
		}
	case *ast.RangeStmt:
		lh.expr(st.X)
		lh.stmt(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			lh.stmt(st.Init)
		}
		if st.Tag != nil {
			lh.expr(st.Tag)
		}
		lh.stmt(st.Body)
	case *ast.TypeSwitchStmt:
		lh.stmt(st.Body)
	case *ast.SelectStmt:
		lh.stmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			lh.expr(e)
		}
		lh.stmts(st.Body)
	case *ast.CommClause:
		if st.Comm != nil {
			lh.stmt(st.Comm)
		}
		lh.stmts(st.Body)
	case *ast.LabeledStmt:
		lh.stmt(st.Stmt)
	}
}

// exprArgs inspects only a call's arguments (for go/defer statements,
// whose call itself runs outside the critical section).
func (lh *lockHeld) exprArgs(call *ast.CallExpr) {
	for _, a := range call.Args {
		lh.expr(a)
	}
}

// expr flags blocking calls under a held lock, without entering function
// literals.
func (lh *lockHeld) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			lh.checkCall(x)
		}
		return true
	})
}

func (lh *lockHeld) checkCall(call *ast.CallExpr) {
	lock, heldNow := lh.anyHeld()
	if !heldNow {
		return
	}
	recv, name := calleeName(call)
	if recv == nil {
		return
	}

	// net.Conn writes: Write or SetWriteDeadline on anything satisfying
	// net.Conn (or declared as the interface itself).
	if name == "Write" || name == "SetWriteDeadline" {
		if tv, ok := lh.pass.Info.Types[recv]; ok {
			t := tv.Type
			isConn := namedIn(t, "Conn", "net")
			if !isConn && lh.conn != nil {
				isConn = types.Implements(t, lh.conn) ||
					types.Implements(types.NewPointer(t), lh.conn)
			}
			if isConn {
				lh.pass.Reportf(call.Pos(),
					"net.Conn %s while %s is held can block on a slow peer; move I/O outside the lock", name, lock)
				return
			}
		}
	}

	// Query evaluation: xlang.Eval / EvalCtx / EvalProgram / EvalProgramCtx.
	if len(name) >= 4 && name[:4] == "Eval" {
		if id, ok := recv.(*ast.Ident); ok {
			if pn, ok := lh.pass.Info.Uses[id].(*types.PkgName); ok &&
				pathMatches(pn.Imported().Path(), "xst/internal/xlang") {
				lh.pass.Reportf(call.Pos(),
					"xlang.%s while %s is held serializes query evaluation behind the lock; evaluate outside it", name, lock)
				return
			}
		}
	}

	// Interprocedural: a callee the summary layer knows to block —
	// channel operations, network I/O, or driving an operator tree
	// (exec.Collect gathering remote fragments) — stalls the critical
	// section just as surely as inline I/O would.
	if lh.pass.Summaries != nil {
		if sum := lh.pass.Summaries.ForCall(lh.pass.Info, call); sum != nil && sum.Blocking {
			lh.pass.Reportf(call.Pos(),
				"call to %s while %s is held can block indefinitely (channel/network/operator I/O in the callee); move it outside the lock", name, lock)
		}
	}
}
