package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// lifecycle is one row of the release engine. opclose, connclose, txnend
// and spanclose check one property — a value made in a function is
// released on every path out of it — and differ only in these fields.
//
// The engine visits every function body in the row's scope, each
// function literal as a body of its own, and tracks each assignment that
// binds a made value. Every path from there to an exit must pass a
// release: one of the row's enders called on the value, an escape under
// the row's rule, or — when the same assignment bound an error — a path
// on which that error is non-nil, so the value was never live. It also
// flags an ender deferred inside the loop that makes the value (defers
// run at function exit, so per-iteration values pile up), and a loop path
// that makes the value again before releasing the last one.
type lifecycle struct {
	name, doc string
	kind      string   // names the resource in messages
	pkgs      []string // scope; nil is every package
	isRes     func(types.Type) bool
	// maker, when set, narrows acquisitions to its calls; otherwise any
	// call whose result binds a variable of the type makes one.
	maker  func(*ast.CallExpr) bool
	enders []string
	// owned picks the escape rule: the summary layer's ownership transfer
	// (stored, returned, sent, captured, handed to a releasing callee), or
	// else any use of the value other than as a method receiver.
	owned bool
	// exemptMethods skips methods declared on the resource type itself.
	exemptMethods bool
	// leak is reported at the acquisition. With leakAt set, each leaking
	// return is reported at its own line instead (leak then covers falling
	// off the end), and never replaces both when no statement releases the
	// value at all. discard is reported at a made value that is dropped.
	leak, leakAt, never, discard string
	// extra is a further check run on every function in scope.
	extra func(*Pass, *ast.FuncDecl)
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
var OpCloseAnalyzer = lifecycle{
	name:          "opclose",
	doc:           "flags locally-created exec.Operators not closed or released on every return path, and defer-in-loop closes",
	kind:          "operator",
	pkgs:          []string{"xst/internal/plan", "xst/internal/fed", "xst/internal/exec", "xst/internal/server", "xst/internal/index"},
	isRes:         withMethods("Open", "Next", "Close"),
	enders:        []string{"Close", "close"},
	owned:         true,
	exemptMethods: true,
	leak:          "operator %s is not closed on every return path; Close it on error unwinds or hand it to exec.Drain/Stream/Collect",
}.analyzer()

// ConnCloseAnalyzer pairs every live connection with its teardown.
// Connection-carrying values are net.Conn implementations and structs
// wrapping one (the server.Client shape). Two complementary checks:
//
//  1. Locally-acquired connections follow the same all-paths release
//     discipline as operators (close it, pool it via a callee whose
//     summary stores its parameter, store/return it, or hand it to a
//     capturing closure — but not a context.AfterFunc callback, which
//     runs only if the context dies) — including the retry-loop shape,
//     where reassigning the variable on a backoff path without closing
//     first abandons the previous conn.
//
//  2. Methods holding a connection in a receiver field must tear it
//     down symmetrically (checkPairedTeardown).
//
// Methods on conn-carrying types are the connection's own plumbing and
// are exempt from both.
var ConnCloseAnalyzer = lifecycle{
	name:          "connclose",
	doc:           "flags net.Conn/site connections not released on every path, retry-loop conn abandonment, and asymmetric error-path teardown",
	kind:          "connection",
	pkgs:          []string{"xst/internal/fed", "xst/internal/server"},
	isRes:         isConnValue,
	enders:        []string{"Close", "close"},
	owned:         true,
	exemptMethods: true,
	leak:          "connection %s is not released on every return path; close it, pool it, or hand it to an owner",
	extra:         (*Pass).checkPairedTeardown,
}.analyzer()

// TxnEndAnalyzer enforces the transaction lifecycle: a locally-begun
// transaction (any value whose method set has both Commit and Abort)
// must, on every path out of the function, be Committed, Aborted, or
// escape into an owner (returned, stored into a struct, captured by a
// closure). The paths that slip through review are the validation
// unwinds between Begin and Commit: an early error return that leaves
// the writer lock held and the shadow map staged wedges every later
// writer — a deadlock in slow motion rather than a leak.
//
// `defer tx.Abort()` right after Begin is the sanctioned unwind shape
// (Abort after Commit is a no-op), and a plain Commit/Abort pair on the
// branches works too. Methods on transaction types themselves are
// exempt: Commit and Abort manipulate their own receiver's state under
// a different discipline.
var TxnEndAnalyzer = lifecycle{
	name:          "txnend",
	doc:           "flags locally-begun transactions not committed or aborted on every return path",
	kind:          "transaction",
	pkgs:          []string{"xst/internal/catalog", "xst/internal/table", "xst/internal/server"},
	isRes:         withMethods("Commit", "Abort"),
	enders:        []string{"Commit", "CommitWith", "Abort"},
	owned:         true,
	exemptMethods: true,
	leak:          "transaction %s is not committed or aborted on every return path; Abort it on error unwinds (or defer the Abort — it is a no-op after Commit)",
}.analyzer()

// SpanCloseAnalyzer enforces the tracer's lifecycle contract in every
// package: every span obtained from trace.NewRoot, trace.NewRootTrace or
// (*trace.Span).Start is ended — End, EndErr, FinishNs or SetOpStats —
// on every path out of the function. (trace.SpanOf looks an existing
// span up and makes none.) A span that is never ended reports a zero
// duration and silently truncates the trees the slow-query log,
// `.trace` and the distributed-trace wire format serve, so the leak is
// invisible at runtime; this catches it statically.
//
// A span used as anything but a method receiver (returned, passed to a
// call, stored) has escaped to an owner on that path. The analyzer
// reports a discarded Start/NewRoot result, a span with no ending call
// at all, and each return a path reaches with the span still open;
// `defer sp.End()` (directly or inside a deferred closure) covers every
// path. Methods of trace.Span are not exempt.
var SpanCloseAnalyzer = lifecycle{
	name:  "spanclose",
	doc:   "flags trace spans (NewRoot/Start) not ended on every return path",
	kind:  "span",
	isRes: func(t types.Type) bool { return namedIn(t, "Span", "xst/internal/trace") },
	maker: func(call *ast.CallExpr) bool {
		_, name := calleeName(call)
		return name == "Start" || name == "NewRoot" || name == "NewRootTrace"
	},
	enders:  []string{"End", "EndErr", "FinishNs", "SetOpStats"},
	leak:    "span %[1]s is not ended on every path out of the function; defer %[1]s.End() or end it on each branch",
	leakAt:  "return leaves span %[1]s open; defer %[1]s.End() or end it before returning",
	never:   "span %s is started but never ended (End/EndErr/FinishNs/SetOpStats)",
	discard: "result of %s discarded; the span is never ended",
}.analyzer()

func (l lifecycle) analyzer() *Analyzer {
	return &Analyzer{Name: l.name, Doc: l.doc, Run: l.run}
}

func (l *lifecycle) run(pass *Pass) error {
	if l.pkgs != nil && !pathMatches(pass.Pkg.Path(), l.pkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || l.exemptMethods && l.isMethodOf(pass, fn) {
				continue
			}
			l.checkBody(pass, fn.Body)
			if l.extra != nil {
				l.extra(pass, fn)
			}
		}
	}
	return nil
}

// isMethodOf reports a method declared on the row's resource type.
func (l *lifecycle) isMethodOf(pass *Pass, fn *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
	if !ok || fn.Recv == nil {
		return false
	}
	return l.isRes(obj.Type().(*types.Signature).Recv().Type())
}

// withMethods returns the structural type test for a resource: t's
// method set, or its pointer's, has every one of names, so the real
// types, fixtures and future implementations qualify without this
// package importing them.
func withMethods(names ...string) func(types.Type) bool {
	has := func(t types.Type) bool {
		ms := types.NewMethodSet(t)
		for _, n := range names {
			if ms.Lookup(nil, n) == nil {
				return false
			}
		}
		return true
	}
	return func(t types.Type) bool {
		_, isPtr := t.(*types.Pointer)
		return has(t) || !isPtr && has(types.NewPointer(t))
	}
}

// acquisition is one tracked binding: a variable assigned a made value.
// errObj is the error bound by the same assignment, when there is one.
type acquisition struct {
	obj, errObj types.Object
	stmt        *ast.AssignStmt
}

// body is one function body under check, with the loops and
// `if x != nil` statements in it that the checks consult.
type body struct {
	acqs   []acquisition
	loops  []ast.Node
	guards []*ast.IfStmt
}

// checkBody checks the acquisitions in block, a function's body; each
// function literal inside it is checked as a body of its own.
func (l *lifecycle) checkBody(pass *Pass, block *ast.BlockStmt) {
	var b body
	ast.Inspect(block, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			l.checkBody(pass, x.Body)
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			b.loops = append(b.loops, x)
		case *ast.IfStmt:
			if cond, ok := ast.Unparen(x.Cond).(*ast.BinaryExpr); ok && cond.Op == token.NEQ {
				b.guards = append(b.guards, x)
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
				l.checkDiscard(pass, call)
			}
		case *ast.AssignStmt:
			for _, obj := range l.bindings(pass, x) {
				b.acqs = append(b.acqs, acquisition{obj: obj, errObj: errSibling(pass.Info, x), stmt: x})
			}
		}
		return true
	})
	if len(b.acqs) == 0 {
		return
	}
	cfg := buildCFG(block)
	// Two acquisitions of one variable leak through the same returns.
	type retLeak struct {
		ret *ast.ReturnStmt
		obj types.Object
	}
	reported := map[retLeak]bool{}
	for _, acq := range b.acqs {
		rel := func(st ast.Stmt) bool { return l.releases(pass, &b, st, acq) }
		var exits []*ast.ReturnStmt
		if l.everyPathReleases(pass, &b, cfg, acq, func(ret *ast.ReturnStmt) bool {
			exits = append(exits, ret)
			return l.leakAt != "" // only per-return reports need every exit
		}) {
			l.checkDeferInLoop(pass, &b, acq)
			if cfg.reacquiredWithoutRelease(acq.stmt, rel) {
				pass.Reportf(acq.stmt.Pos(),
					"%s %s is reassigned on a loop path without being closed first; the previous value leaks", l.kind, acq.obj.Name())
			}
			continue
		}
		if l.never != "" && !slices.ContainsFunc(cfg.blocks, func(blk *cfgBlock) bool { return slices.ContainsFunc(blk.stmts, rel) }) {
			pass.Reportf(acq.stmt.Pos(), l.never, acq.obj.Name())
			continue
		}
		for _, ret := range exits {
			switch {
			case ret == nil || l.leakAt == "":
				pass.Reportf(acq.stmt.Pos(), l.leak, acq.obj.Name())
			case !reported[retLeak{ret, acq.obj}]:
				reported[retLeak{ret, acq.obj}] = true
				pass.Reportf(ret.Pos(), l.leakAt, acq.obj.Name())
			}
		}
	}
}

// everyPathReleases reports whether every path from acq passes a release
// of its value, handing each exit reached without one to exit. The error
// acq bound stands for the value only until the path assigns that error
// again (`id, n, err := conn.Send(…)`): from there on, only an ender or
// an escape releases the value.
func (l *lifecycle) everyPathReleases(pass *Pass, b *body, cfg *funcCFG, acq acquisition, exit func(*ast.ReturnStmt) bool) bool {
	var stale []ast.Stmt
	ok := cfg.everyPathSatisfies(acq.stmt, func(st ast.Stmt) bool {
		if l.releases(pass, b, st, acq) {
			return true
		}
		// The acquisition itself, met again around a loop, binds the
		// value and its error afresh; reaching it unreleased is
		// reacquiredWithoutRelease's finding.
		if as, isAssign := st.(*ast.AssignStmt); isAssign && st != acq.stmt && acq.errObj != nil &&
			slices.ContainsFunc(as.Lhs, func(e ast.Expr) bool { return isObj(pass.Info, e, acq.errObj) }) {
			stale = append(stale, st)
			return true
		}
		return false
	}, exit)
	valueOnly := acquisition{obj: acq.obj, stmt: acq.stmt}
	for _, st := range stale {
		if !ok && l.leakAt == "" {
			break
		}
		ok = cfg.everyPathSatisfies(st, func(s ast.Stmt) bool {
			return s == acq.stmt || l.releases(pass, b, s, valueOnly)
		}, exit) && ok
	}
	return ok
}

// made reports whether call makes the row's resource.
func (l *lifecycle) made(call *ast.CallExpr) bool {
	return l.maker == nil || l.maker(call)
}

// checkDiscard reports a made value dropped by an expression statement
// or a blank assignment, when the row asks.
func (l *lifecycle) checkDiscard(pass *Pass, call *ast.CallExpr) {
	if l.discard == "" || !l.made(call) {
		return
	}
	if tv, ok := pass.Info.Types[call]; ok && l.isRes(tv.Type) {
		_, name := calleeName(call)
		pass.Reportf(call.Pos(), l.discard, name)
	}
}

// bindings returns the variables the assignment binds to made values
// (both `v := f()` and the multi-value `v, err := f()`).
func (l *lifecycle) bindings(pass *Pass, as *ast.AssignStmt) []types.Object {
	var out []types.Object
	bind := func(lhs ast.Expr, call *ast.CallExpr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || !l.made(call) {
			return
		}
		if id.Name == "_" {
			if len(as.Lhs) == len(as.Rhs) {
				l.checkDiscard(pass, call)
			}
			return
		}
		if obj := pass.Info.ObjectOf(id); obj != nil && l.isRes(obj.Type()) {
			// A rebinding of a parameter or prior variable is still an
			// acquisition of the new value.
			out = append(out, obj)
		}
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			for _, lhs := range as.Lhs {
				bind(lhs, call)
			}
		}
		return out
	}
	for i, r := range as.Rhs {
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && i < len(as.Lhs) {
			bind(as.Lhs[i], call)
		}
	}
	return out
}

// releases reports whether st ends acq's value on the paths through it.
// Compound statements count only for the part that runs in their own
// block (shallowNode), so one branch's release is not credited to paths
// that skip the branch.
func (l *lifecycle) releases(pass *Pass, b *body, st ast.Stmt, acq acquisition) bool {
	if n := shallowNode(st); n != nil {
		if l.endsIn(pass.Info, n, acq.obj) {
			return true
		}
		if l.owned && pass.Summaries.ReleasesIn(pass.Info, st, acq.obj) ||
			!l.owned && usedBeyondReceiver(pass.Info, n, acq.obj) {
			return true
		}
	}
	if acq.errObj == nil {
		return false
	}
	// Propagating the acquisition's own error (still the value it bound;
	// see everyPathReleases): the value is nil here.
	if ret, ok := st.(*ast.ReturnStmt); ok && slices.ContainsFunc(ret.Results, func(r ast.Expr) bool {
		return exprUsesObject(pass.Info, r, acq.errObj)
	}) {
		return true
	}
	// Inside an `if err != nil` body the value is statically nil (the
	// Accept/Dial contract), so paths through it owe no release even when
	// they return a different error. In the condition or the else branch
	// err may be nil.
	return slices.ContainsFunc(b.guards, func(ifs *ast.IfStmt) bool {
		cond := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		return ifs.Body.Pos() <= st.Pos() && st.End() <= ifs.Body.End() &&
			(isObj(pass.Info, cond.X, acq.errObj) && isNilExpr(pass.Info, cond.Y) ||
				isObj(pass.Info, cond.Y, acq.errObj) && isNilExpr(pass.Info, cond.X))
	})
}

// endsIn reports a call of one of the row's enders on obj within n.
func (l *lifecycle) endsIn(info *types.Info, n ast.Node, obj types.Object) bool {
	ended := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if call, ok := nn.(*ast.CallExpr); ok && !ended {
			if isAfterFunc(info, call) {
				return false
			}
			recv, name := calleeName(call)
			ended = recv != nil && slices.Contains(l.enders, name) && isObj(info, recv, obj)
		}
		return !ended
	})
	return ended
}

// usedBeyondReceiver reports a use of obj in n other than as the receiver
// of a method call or the target of an assignment — the span's escape.
func usedBeyondReceiver(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		switch x := nn.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && isObj(info, sel.X, obj) {
				for _, a := range x.Args {
					found = found || usedBeyondReceiver(info, a, obj)
				}
				return false
			}
		case *ast.AssignStmt:
			for _, e := range x.Lhs {
				found = found || !isObj(info, e, obj) && usedBeyondReceiver(info, e, obj)
			}
			for _, e := range x.Rhs {
				found = found || usedBeyondReceiver(info, e, obj)
			}
			return false
		case *ast.Ident:
			found = found || info.Uses[x] == obj
		}
		return !found
	})
	return found
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

// checkDeferInLoop flags a deferred ender of a per-iteration value: the
// acquisition and the defer sit inside the same innermost loop, so
// releases accumulate until function exit.
func (l *lifecycle) checkDeferInLoop(pass *Pass, b *body, acq acquisition) {
	var loop ast.Node
	for _, lp := range b.loops {
		if lp.Pos() <= acq.stmt.Pos() && acq.stmt.End() <= lp.End() && (loop == nil || lp.Pos() > loop.Pos()) {
			loop = lp
		}
	}
	if loop == nil {
		return
	}
	ast.Inspect(loop, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		recv, name := calleeName(def.Call)
		if recv != nil && slices.Contains(l.enders, name) && isObj(pass.Info, recv, acq.obj) {
			pass.Reportf(def.Pos(),
				"defer %s.%s() inside a loop releases nothing until the function returns; close the %s at the end of each iteration", acq.obj.Name(), name, l.kind)
			return false
		}
		return true
	})
}
