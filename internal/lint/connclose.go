package lint

import (
	"go/ast"
	"go/types"
)

// checkPairedTeardown is connclose's row-specific check: methods holding
// a connection in a receiver field must tear it down symmetrically. When
// at least one error return is preceded by a dropConn-style teardown (a
// TearsDownRecv callee, a direct field close, a nil-ing of the field, or
// pooling the field away), every other error return reachable after the
// conn was used must be too. The asymmetric path — one error return that
// keeps the conn and its close hook live — is precisely the retry-path bug
// class connclose exists for.
func (p *Pass) checkPairedTeardown(fn *ast.FuncDecl) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return
	}
	recvObj := p.Info.ObjectOf(fn.Recv.List[0].Names[0])
	if recvObj == nil || !returnsError(p.Info, fn) {
		return
	}
	cfg := buildCFG(fn.Body)

	connUse := func(st ast.Stmt) bool {
		n := shallowNode(st)
		return n != nil && p.usesConnField(n, recvObj)
	}

	type retInfo struct {
		ret      *ast.ReturnStmt
		teardown bool
	}
	var errReturns []retInfo
	for _, ret := range cfg.returns() {
		if !isErrorReturn(p.Info, ret) {
			continue
		}
		if !cfg.pathExistsTo(connUse, ret) {
			continue // guard clauses before the conn is touched are exempt
		}
		errReturns = append(errReturns, retInfo{ret, p.hasTeardown(cfg, ret, recvObj)})
	}
	anyTorn := false
	for _, ri := range errReturns {
		if ri.teardown {
			anyTorn = true
		}
	}
	if !anyTorn {
		return // not a teardown-style method (e.g. pure I/O helpers)
	}
	for _, ri := range errReturns {
		if !ri.teardown {
			p.Reportf(ri.ret.Pos(),
				"error return abandons the receiver's live connection while sibling error paths tear it down; release it here too (dropConn-style)")
		}
	}
}

// usesConnField reports whether node touches a conn-ish field of the
// receiver object.
func (p *Pass) usesConnField(node ast.Node, recvObj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || found {
			return !found
		}
		if !isObj(p.Info, sel.X, recvObj) {
			return true
		}
		if tv, ok := p.Info.Types[sel]; ok && isConnValue(tv.Type) {
			found = true
		}
		return !found
	})
	return found
}

// hasTeardown reports whether the error return is covered by a teardown:
// one in its linear preceding chain, in the return expression itself, or
// a deferred teardown established before it.
func (p *Pass) hasTeardown(cfg *funcCFG, ret *ast.ReturnStmt, recvObj types.Object) bool {
	if p.teardownNode(ret, recvObj) {
		return true
	}
	for _, d := range cfg.defers {
		if d.Pos() < ret.Pos() && p.teardownNode(d, recvObj) {
			return true
		}
	}
	for _, st := range cfg.precedingChain(ret) {
		n := shallowNode(st)
		if n != nil && p.teardownNode(n, recvObj) {
			return true
		}
	}
	return false
}

// teardownNode reports whether node performs receiver-conn teardown: a
// call to a TearsDownRecv method on the receiver, a direct close of a
// conn-ish field, nil-ing such a field, or pooling it away via a
// releases-param callee.
func (p *Pass) teardownNode(node ast.Node, recvObj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			recv, name := calleeName(x)
			// r.dropConn() — summary-known teardown helper.
			if recv != nil && isObj(p.Info, recv, recvObj) && p.Summaries != nil {
				if sum := p.Summaries.ForCall(p.Info, x); sum != nil && sum.TearsDownRecv {
					found = true
					return false
				}
			}
			// r.conn.close() / r.conn.Close()
			if (name == "Close" || name == "close") && recv != nil {
				if sel, ok := ast.Unparen(recv).(*ast.SelectorExpr); ok && isObj(p.Info, sel.X, recvObj) {
					if tv, ok := p.Info.Types[sel]; ok && isConnValue(tv.Type) {
						found = true
						return false
					}
				}
			}
			// pool.put(r.conn) and friends: the conn field handed to a
			// callee that takes ownership of that parameter.
			if p.Summaries != nil {
				if sum := p.Summaries.ForCall(p.Info, x); sum != nil {
					for i, a := range x.Args {
						if i >= len(sum.ReleasesParams) || !sum.ReleasesParams[i] {
							continue
						}
						if sel, ok := ast.Unparen(a).(*ast.SelectorExpr); ok && isObj(p.Info, sel.X, recvObj) {
							if tv, ok := p.Info.Types[sel]; ok && isConnValue(tv.Type) {
								found = true
								return false
							}
						}
					}
				}
			}
		case *ast.AssignStmt:
			// r.conn = nil
			for i, l := range x.Lhs {
				sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
				if !ok || !isObj(p.Info, sel.X, recvObj) || i >= len(x.Rhs) {
					continue
				}
				if tv, ok := p.Info.Types[sel]; !ok || !isConnValue(tv.Type) {
					continue
				}
				if rid, ok := ast.Unparen(x.Rhs[i]).(*ast.Ident); ok && rid.Name == "nil" {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// returnsError reports whether fn's last result is an error.
func returnsError(info *types.Info, fn *ast.FuncDecl) bool {
	obj := info.Defs[fn.Name]
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// isErrorReturn reports a return whose final result is a non-nil error
// expression.
func isErrorReturn(info *types.Info, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false // naked return: named results, assume success path
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	if tv, ok := info.Types[last]; ok {
		if named, ok := tv.Type.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return true
		}
		return false
	}
	return true
}
