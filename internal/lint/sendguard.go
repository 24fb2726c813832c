package lint

import (
	"go/ast"
	"go/types"
)

// sendguardPkgs mirror goleak's scope: where producer goroutines live.
var sendguardPkgs = []string{
	"xst/internal/exec",
	"xst/internal/fed",
	"xst/internal/server",
}

// SendGuardAnalyzer keeps producers cancellable: inside a worker — a
// goroutine body, or a function directly called from one — a channel
// send must sit in a select with an escape arm (another comm case or a
// default), the `case ch <- v: case <-ctx.Done():` shape Gather's
// workers use. A bare send in a worker wedges forever once the consumer
// stops draining, which is exactly what happens after cancellation.
//
// Sends on channels made in the same function with a non-zero buffer
// are exempt: the sized-to-producers error-channel idiom cannot block.
// The check is one call deep by design — helpers called from workers
// are audited, the functions they call are their own callers'
// responsibility — so shared utilities (semaphore refills documented as
// never running under a worker's critical path) don't flood the report.
var SendGuardAnalyzer = &Analyzer{
	Name: "sendguard",
	Doc:  "flags bare channel sends in worker goroutines (and functions they call directly) lacking a ctx-done select arm",
	Run:  runSendGuard,
}

func runSendGuard(pass *Pass) error {
	if !pathMatches(pass.Pkg.Path(), sendguardPkgs...) {
		return nil
	}
	decls := packageDecls(pass)

	// Collect worker regions: every goroutine entry body, plus the
	// declarations of functions directly called from one.
	type region struct {
		body *ast.BlockStmt
		file *ast.File
	}
	var regions []region
	seenFuncs := map[types.Object]bool{}
	addCallees := func(body *ast.BlockStmt, file *ast.File) {
		inspectSyncNoLit(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fobj := staticCallee(pass.Info, call); fobj != nil && !seenFuncs[fobj] {
				if fd, ok := decls[fobj]; ok {
					seenFuncs[fobj] = true
					regions = append(regions, region{fd.Body, fileOf(pass, fd)})
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				regions = append(regions, region{lit.Body, f})
				addCallees(lit.Body, f)
			} else if fobj := staticCallee(pass.Info, g.Call); fobj != nil && !seenFuncs[fobj] {
				if fd, ok := decls[fobj]; ok {
					seenFuncs[fobj] = true
					regions = append(regions, region{fd.Body, fileOf(pass, fd)})
					addCallees(fd.Body, fileOf(pass, fd))
				}
			}
			return true
		})
	}

	for _, r := range regions {
		parents := parentMap(r.file)
		inspectSyncNoLit(r.body, func(n ast.Node) bool {
			send, ok := n.(*ast.SendStmt)
			if !ok {
				return true
			}
			if sendGuarded(parents, send) || pass.bufferedLocalChan(send.Chan) {
				return true
			}
			pass.Reportf(send.Pos(),
				"channel send in a worker without a ctx-done select arm; a cancelled query can wedge this producer")
			return true
		})
	}
	return nil
}

// inspectSyncNoLit walks a worker body but stays within it: nested `go`
// statements are their own workers, and nested function literals run
// under whoever invokes them.
func inspectSyncNoLit(node ast.Node, f func(ast.Node) bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		}
		return f(n)
	})
}

// fileOf finds the file containing the declaration.
func fileOf(pass *Pass, fd *ast.FuncDecl) *ast.File {
	for _, f := range pass.Files {
		if f.Pos() <= fd.Pos() && fd.End() <= f.End() {
			return f
		}
	}
	return nil
}

// sendGuarded reports whether the send is a select comm case with an
// escape arm: at least one other case (typically <-ctx.Done()) or a
// default.
func sendGuarded(parents map[ast.Node]ast.Node, send *ast.SendStmt) bool {
	cc, ok := parents[send].(*ast.CommClause)
	if !ok || cc.Comm != send {
		return false
	}
	body, ok := parents[cc].(*ast.BlockStmt)
	if !ok {
		return false
	}
	sel, ok := parents[body].(*ast.SelectStmt)
	if !ok {
		return false
	}
	for _, c := range sel.Body.List {
		if other, ok := c.(*ast.CommClause); ok && other != cc {
			return true // another case or a default gives an escape
		}
	}
	return false
}

// bufferedLocalChan reports whether ch resolves to a variable created in
// the analyzed package by make(chan T, n) with a non-zero constant
// buffer — sends on the sized-to-producers idiom cannot block.
func (p *Pass) bufferedLocalChan(ch ast.Expr) bool {
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	buffered := false
	for _, f := range p.Files {
		if buffered {
			break
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if buffered {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, l := range as.Lhs {
				if !isObj(p.Info, l, obj) || i >= len(as.Rhs) {
					continue
				}
				call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					continue
				}
				if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fid.Name != "make" {
					continue
				}
				if tv, ok := p.Info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() != "0" {
					buffered = true
				}
			}
			return true
		})
	}
	return buffered
}

// parentMap records each node's immediate parent within file.
func parentMap(file *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
