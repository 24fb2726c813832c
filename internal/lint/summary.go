package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// inspectSync walks node like ast.Inspect but skips `go` statement
// subtrees — what a spawned goroutine does is not a synchronous fact
// about the spawning function.
func inspectSync(node ast.Node, f func(ast.Node) bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		return f(n)
	})
}

// The summary layer is xstvet's interprocedural half: per-function facts
// computed from source over every analyzed package, keyed by a stable
// string (pkgPath:Recv.Name) that works whether a callee was
// type-checked from source or only seen through export data. Analyzers
// consult summaries instead of inlining callees — the classic
// bottom-up alternative to whole-program SSA, sized to this module.
//
// Facts are derived in two steps: AddPackage computes each function's
// local facts (what it closes, stores, blocks on), then Finalize runs a
// fixpoint so facts propagate through call chains (exec.Count releases
// its operator because it calls exec.Drain, which does). A small seed
// table covers callees whose source is outside the analyzed set.

// FuncSummary is what the analyzers know about one function.
type FuncSummary struct {
	// ReleasesParams[i] reports that the function takes ownership of
	// parameter i on every path: closes it, stores it into a field,
	// slice, map or struct, returns it, or hands it to a callee that
	// does. Operator and connection arguments passed to such a callee
	// need no local Close.
	ReleasesParams []bool
	// Blocking reports the function (transitively) performs unbounded
	// blocking work: network reads/writes, channel operations, or
	// driving an operator tree (exec.Stream and friends). lockheld
	// flags calls to Blocking functions inside critical sections.
	Blocking bool
	// WgDones / WgWaits are "Type.field" keys of sync.WaitGroup fields
	// the function calls Done/Wait on (receiver fields only; locals are
	// matched syntactically by goleak).
	WgDones []string
	WgWaits []string
	// ClosesChans / RecvsChans are "Type.field" keys of channel fields
	// the function closes / receives from (or ranges over).
	ClosesChans []string
	RecvsChans  []string
	// CtxDoneSelect reports a select with a <-ctx.Done() arm somewhere
	// in the body — the worker shape sendguard and goleak sanction.
	CtxDoneSelect bool
	// TearsDownRecv reports a method that closes a connection held in
	// its receiver's fields (directly or via another teardown method) —
	// how connclose recognizes dropConn-style paired teardowns.
	TearsDownRecv bool
}

// summarized pairs a declaration with what it needs for re-evaluation
// during the fixpoint.
type summarized struct {
	pkg *LoadedPackage
	fn  *ast.FuncDecl
	cfg *funcCFG
	sum *FuncSummary
}

// seedSummary is a summary for a callee identified by package suffix,
// receiver and name rather than an exact key.
type seedSummary struct {
	pkg, recv, name string
	sum             FuncSummary
}

// seedTable covers the sanctioned lifecycle drivers: the exec streaming
// entrypoints own (open, drain and close) the operator they are handed,
// and block for the stream's duration.
var seedTable = []seedSummary{
	{pkg: "xst/internal/exec", name: "Drain", sum: FuncSummary{ReleasesParams: []bool{false, true, false}, Blocking: true}},
	{pkg: "xst/internal/exec", name: "Stream", sum: FuncSummary{ReleasesParams: []bool{false, true, false}, Blocking: true}},
	{pkg: "xst/internal/exec", name: "Collect", sum: FuncSummary{ReleasesParams: []bool{false, true}, Blocking: true}},
	{pkg: "xst/internal/exec", name: "Count", sum: FuncSummary{ReleasesParams: []bool{false, true}, Blocking: true}},
}

// applySeeds merges seed facts into a computed summary: a seed states
// contract-level truths syntax can't see (exec.Stream blocks for the
// stream's whole life because its Operator drives arbitrary I/O), so
// they hold even when the function's source is analyzed.
func applySeeds(sum *FuncSummary, pkgPath, recv, name string) {
	for i := range seedTable {
		sd := &seedTable[i]
		if sd.name != name || sd.recv != recv || !pathMatches(pkgPath, sd.pkg) {
			continue
		}
		sum.Blocking = sum.Blocking || sd.sum.Blocking
		sum.CtxDoneSelect = sum.CtxDoneSelect || sd.sum.CtxDoneSelect
		sum.TearsDownRecv = sum.TearsDownRecv || sd.sum.TearsDownRecv
		for i, r := range sd.sum.ReleasesParams {
			if !r {
				continue
			}
			for len(sum.ReleasesParams) <= i {
				sum.ReleasesParams = append(sum.ReleasesParams, false)
			}
			sum.ReleasesParams[i] = true
		}
	}
}

// Summaries is the shared store, safe for concurrent readers after
// Finalize.
type Summaries struct {
	mu    sync.RWMutex
	funcs map[string]*summarized
	// pkgWgWaits / pkgChanRecvs index, per package, which WaitGroup
	// fields are waited on and which channel fields are received from
	// anywhere in the package — the join points goleak matches spawns
	// against.
	pkgWgWaits   map[string]map[string]bool
	pkgChanRecvs map[string]map[string]bool
}

// NewSummaries returns an empty store.
func NewSummaries() *Summaries {
	return &Summaries{
		funcs:        map[string]*summarized{},
		pkgWgWaits:   map[string]map[string]bool{},
		pkgChanRecvs: map[string]map[string]bool{},
	}
}

// funcKey builds the stable summary key.
func funcKey(pkgPath, recv, name string) string { return pkgPath + ":" + recv + "." + name }

// recvTypeName names a receiver's base type ("" when not a method).
func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// keyOfFunc keys a resolved function object.
func keyOfFunc(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	recv := ""
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	return funcKey(pkg, recv, f.Name())
}

// staticCallee resolves a call to its function object (nil for calls
// through function values or type conversions).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// AddPackage indexes pkg's functions and computes their local facts.
// Call Finalize after the last package to propagate transitive facts.
func (s *Summaries) AddPackage(pkg *LoadedPackage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	waits := s.pkgWgWaits[pkg.Path]
	if waits == nil {
		waits = map[string]bool{}
		s.pkgWgWaits[pkg.Path] = waits
	}
	recvs := s.pkgChanRecvs[pkg.Path]
	if recvs == nil {
		recvs = map[string]bool{}
		s.pkgChanRecvs[pkg.Path] = recvs
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sm := &summarized{pkg: pkg, fn: fn, cfg: buildCFG(fn.Body), sum: &FuncSummary{}}
			recv := ""
			if fn.Recv != nil && len(fn.Recv.List) > 0 {
				if obj := pkg.Info.Defs[fn.Name]; obj != nil {
					if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
						recv = recvTypeName(sig.Recv().Type())
					}
				}
			}
			key := funcKey(pkg.Path, recv, fn.Name.Name)
			s.funcs[key] = sm
			s.localFacts(sm, waits, recvs)
			applySeeds(sm.sum, pkg.Path, recv, fn.Name.Name)
		}
	}
}

// fieldKey renders a sync.WaitGroup (or channel) selector expression
// on a named receiver as "Type.field"; "" when e is not such a field.
func fieldKey(info *types.Info, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	base := recvTypeName(tv.Type)
	if base == "" {
		return ""
	}
	return base + "." + sel.Sel.Name
}

// localFacts fills sm.sum with everything derivable from this body
// alone (transitive facts arrive in Finalize).
//
// Two walks with different reach: the package-level join indexes (who
// waits on which WaitGroup field, who receives from which channel
// field) include goroutine bodies — Gather's closer goroutine is
// exactly where g.wg.Wait lives. The function's own synchronous facts
// (Blocking, WgDones, ClosesChans, CtxDoneSelect) skip `go` statement
// subtrees: a Done inside a goroutine the function spawns says nothing
// about the function's callers, and counting it would make
// `go srv.Serve(l)` look joined merely because Serve joins its own
// per-connection workers.
func (s *Summaries) localFacts(sm *summarized, waits, recvs map[string]bool) {
	info := sm.pkg.Info
	sum := sm.sum

	// Walk 1: package-level indexes, goroutine bodies included.
	ast.Inspect(sm.fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if k := fieldKey(info, x.X); k != "" {
					recvs[k] = true
				}
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					if k := fieldKey(info, x.X); k != "" {
						recvs[k] = true
					}
				}
			}
		case *ast.CallExpr:
			if recv, name := calleeName(x); recv != nil && name == "Wait" {
				if tv, ok := info.Types[recv]; ok && namedIn(tv.Type, "WaitGroup", "sync") {
					if k := fieldKey(info, recv); k != "" {
						waits[k] = true
					}
				}
			}
		}
		return true
	})

	// Walk 2: synchronous facts, `go` subtrees skipped.
	inspectSync(sm.fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			sum.Blocking = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				sum.Blocking = true
				if k := fieldKey(info, x.X); k != "" {
					sum.RecvsChans = append(sum.RecvsChans, k)
				}
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					sum.Blocking = true
					if k := fieldKey(info, x.X); k != "" {
						sum.RecvsChans = append(sum.RecvsChans, k)
					}
				}
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				if recvFromCtxDone(info, cc.Comm) {
					sum.CtxDoneSelect = true
				}
			}
		case *ast.CallExpr:
			recv, name := calleeName(x)
			// close(ch) on a channel field.
			if recv == nil && name == "close" && len(x.Args) == 1 {
				if k := fieldKey(info, x.Args[0]); k != "" {
					sum.ClosesChans = append(sum.ClosesChans, k)
				}
			}
			if recv != nil {
				tv, ok := info.Types[recv]
				switch {
				case ok && (namedIn(tv.Type, "WaitGroup", "sync")):
					k := fieldKey(info, recv)
					switch name {
					case "Done":
						if k != "" {
							sum.WgDones = append(sum.WgDones, k)
						}
					case "Wait":
						if k != "" {
							sum.WgWaits = append(sum.WgWaits, k)
						}
					}
				case ok && isNetConnMethod(tv.Type, name):
					sum.Blocking = true
				}
			}
		}
		return true
	})
	// Receiver teardown: a method that closes a connection-ish field of
	// its receiver.
	if sm.fn.Recv != nil {
		sum.TearsDownRecv = s.closesRecvConnField(sm)
	}
}

// isNetConnMethod reports a potentially long-blocking I/O method on a
// net.Conn-typed receiver (Close excluded: closing is how teardown
// paths unwedge peers and is fine under a lock).
func isNetConnMethod(t types.Type, name string) bool {
	switch name {
	case "Read", "Write", "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
	default:
		return false
	}
	return namedIn(t, "Conn", "net") || implementsNetConn(t)
}

// implementsNetConn reports whether t satisfies net.Conn, resolved
// through the type's own package imports.
func implementsNetConn(t types.Type) bool {
	base := t
	if ptr, ok := base.(*types.Pointer); ok {
		base = ptr.Elem()
	}
	n, ok := base.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	iface := netConnInterface(n.Obj().Pkg())
	if iface == nil {
		return false
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// recvFromCtxDone reports a comm statement receiving from ctx.Done().
func recvFromCtxDone(info *types.Info, comm ast.Stmt) bool {
	var e ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		e = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			e = c.Rhs[0]
		}
	}
	un, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || un.Op.String() != "<-" {
		return false
	}
	call, ok := ast.Unparen(un.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	recv, name := calleeName(call)
	if name != "Done" || recv == nil {
		return false
	}
	tv, ok := info.Types[recv]
	return ok && namedIn(tv.Type, "Context", "context")
}

// isAfterFunc reports a context.AfterFunc call. Its callback runs only
// if the context dies, so what the callback closes or captures is not
// released by the call.
func isAfterFunc(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "AfterFunc" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// isConnValue reports a connection-carrying type: net.Conn (or an
// implementation), or a pointer to a struct wrapping one in a field —
// the server.Client shape.
func isConnValue(t types.Type) bool {
	if t == nil {
		return false
	}
	if namedIn(t, "Conn", "net") || implementsNetConn(t) {
		return true
	}
	base := t
	if ptr, ok := base.(*types.Pointer); ok {
		base = ptr.Elem()
	}
	st, ok := base.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if namedIn(ft, "Conn", "net") {
			return true
		}
	}
	return false
}

// closesRecvConnField reports whether the method closes a conn-ish
// field of its receiver (r.conn.close(), r.conn.Close(), or a call to
// another method already known to).
func (s *Summaries) closesRecvConnField(sm *summarized) bool {
	info := sm.pkg.Info
	found := false
	ast.Inspect(sm.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		recv, name := calleeName(call)
		if recv == nil || (name != "Close" && name != "close" && name != "halt") {
			return true
		}
		if sel, ok := ast.Unparen(recv).(*ast.SelectorExpr); ok {
			if tv, ok := info.Types[sel]; ok && isConnValue(tv.Type) {
				found = true
			}
		}
		return true
	})
	return found
}

// Finalize propagates transitive facts to a fixpoint: blocking through
// call chains, ownership through delegation, teardown through helper
// methods.
func (s *Summaries) Finalize() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, sm := range s.funcs {
			if s.sweep(sm) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// sweep re-derives one function's transitive facts; reports change.
func (s *Summaries) sweep(sm *summarized) bool {
	info := sm.pkg.Info
	sum := sm.sum
	changed := false

	// Blocking and teardown through static callees (synchronous calls
	// only — a call inside a spawned goroutine doesn't block the caller).
	if !sum.Blocking || (sm.fn.Recv != nil && !sum.TearsDownRecv) {
		inspectSync(sm.fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := s.lookupLocked(info, call)
			if callee == nil {
				return true
			}
			if callee.Blocking && !sum.Blocking {
				sum.Blocking = true
				changed = true
			}
			if callee.TearsDownRecv && sm.fn.Recv != nil && !sum.TearsDownRecv {
				// Delegation to a teardown helper on the same receiver.
				if recv, _ := calleeName(call); recv != nil {
					if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
						if fieldBase(info, sm.fn, id) {
							sum.TearsDownRecv = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}

	// Ownership of each parameter: released on every exit path?
	params := paramObjects(info, sm.fn)
	for len(sum.ReleasesParams) < len(params) {
		sum.ReleasesParams = append(sum.ReleasesParams, false)
	}
	for i, p := range params {
		if sum.ReleasesParams[i] || p == nil {
			continue
		}
		if sm.cfg.allExitPathsSatisfy(func(st ast.Stmt) bool {
			n := shallowNode(st)
			return n != nil && s.releasesObjLocked(info, n, p)
		}) {
			sum.ReleasesParams[i] = true
			changed = true
		}
	}
	return changed
}

// fieldBase reports whether id is the method's receiver variable.
func fieldBase(info *types.Info, fn *ast.FuncDecl, id *ast.Ident) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return false
	}
	return info.ObjectOf(id) == info.ObjectOf(fn.Recv.List[0].Names[0])
}

// paramObjects lists the function's parameter objects in order.
func paramObjects(info *types.Info, fn *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range fn.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter
			continue
		}
		for _, name := range field.Names {
			out = append(out, info.ObjectOf(name))
		}
	}
	return out
}

// releasesObjLocked reports whether the node transfers ownership of
// obj: closes it, stores it beyond locals, returns it, sends it, or
// passes it to a callee that releases that parameter. Callers hand it
// shallowNode(stmt) so one branch's release is not credited to paths
// that skip the branch.
func (s *Summaries) releasesObjLocked(info *types.Info, stmt ast.Node, obj types.Object) bool {
	released := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if released {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			// A closure capturing the object keeps it alive beyond this
			// frame — ownership effectively transfers.
			if usesObjectIn(info, x.Body, obj) {
				released = true
			}
			return false
		case *ast.CallExpr:
			if isAfterFunc(info, x) {
				return false
			}
			recv, name := calleeName(x)
			if recv != nil && (name == "Close" || name == "close") {
				if isObj(info, recv, obj) {
					released = true
					return false
				}
			}
			// append(dst, …, obj, …): the object escapes into a slice
			// whose owner inherits the release obligation.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 1 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					for _, a := range x.Args[1:] {
						if exprUsesObject(info, a, obj) {
							released = true
							return false
						}
					}
				}
			}
			if callee := s.lookupLocked(info, x); callee != nil {
				for i, a := range x.Args {
					if i < len(callee.ReleasesParams) && callee.ReleasesParams[i] && isObj(info, a, obj) {
						released = true
						return false
					}
				}
			}
		case *ast.AssignStmt:
			// obj stored through a selector, index, or composite on the
			// LHS target, or appended into a field slice.
			rhsUses := false
			for _, r := range x.Rhs {
				if exprUsesObject(info, r, obj) {
					rhsUses = true
				}
			}
			if rhsUses {
				for _, l := range x.Lhs {
					switch ast.Unparen(l).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
						released = true
						return false
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if holdsObj(info, r, obj) {
					released = true
					return false
				}
			}
		case *ast.SendStmt:
			if exprUsesObject(info, x.Value, obj) {
				released = true
				return false
			}
		case *ast.CompositeLit:
			for _, e := range x.Elts {
				if exprUsesObject(info, e, obj) {
					released = true
					return false
				}
			}
		}
		return true
	})
	return released
}

// holdsObj reports e handing obj itself to whoever receives it: obj, or
// a composite literal, or its address, with obj among its elements.
// Returning a call on obj, or a field of it, hands over something else.
func holdsObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if lit, ok := e.(*ast.CompositeLit); ok {
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if holdsObj(info, el, obj) {
				return true
			}
		}
		return false
	}
	return isObj(info, e, obj)
}

// isObj reports e resolving exactly to obj.
func isObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && info.ObjectOf(id) == obj
}

// exprUsesObject reports any identifier inside e resolving to obj.
func exprUsesObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// usesObjectIn reports any identifier inside node resolving to obj.
func usesObjectIn(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// lookupLocked resolves a call's summary (exact key, then seed table).
// Callers must hold s.mu (read or write).
func (s *Summaries) lookupLocked(info *types.Info, call *ast.CallExpr) *FuncSummary {
	f := staticCallee(info, call)
	if f == nil {
		return nil
	}
	if sm, ok := s.funcs[keyOfFunc(f)]; ok {
		return sm.sum
	}
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	recv := ""
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	for i := range seedTable {
		sd := &seedTable[i]
		if sd.name == f.Name() && sd.recv == recv && pathMatches(pkg, sd.pkg) {
			return &sd.sum
		}
	}
	return nil
}

// ForCall resolves the summary of a call's static callee (nil when
// unresolvable or unanalyzed).
func (s *Summaries) ForCall(info *types.Info, call *ast.CallExpr) *FuncSummary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookupLocked(info, call)
}

// AnyWaitsOn reports whether any analyzed function waits on the
// WaitGroup field key ("Type.field").
func (s *Summaries) AnyWaitsOn(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, byKey := range s.pkgWgWaits {
		if byKey[key] {
			return true
		}
	}
	return false
}

// AnyReceivesChan reports whether any analyzed function receives from
// (or ranges over) the channel field key.
func (s *Summaries) AnyReceivesChan(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, byKey := range s.pkgChanRecvs {
		if byKey[key] {
			return true
		}
	}
	return false
}

// ReleasesIn reports whether the statement transfers ownership of obj
// (closes, stores, returns, sends, or delegates it) — the release
// predicate the lifecycle analyzers run over CFG paths. Compound
// statements are inspected shallowly (see shallowNode).
func (s *Summaries) ReleasesIn(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	n := shallowNode(stmt)
	if n == nil {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.releasesObjLocked(info, n, obj)
}
