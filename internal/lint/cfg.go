package lint

import (
	"go/ast"
	"slices"
)

// A lightweight intraprocedural control-flow graph at statement
// granularity — just enough path sensitivity for the lifecycle engine
// and the ownership summaries without importing SSA. Blocks hold
// straight-line statements; control statements (if/for/range/switch/
// select) sit at the end of the block that evaluates their condition,
// with their bodies in successor blocks. Branches (break/continue/
// goto/labels) are resolved against an enclosing-construct stack, so
// the graph is sound for the shapes the tree actually uses.
type cfgBlock struct {
	stmts []ast.Stmt
	succs []*cfgBlock
	// ret is the terminating return statement, when the block ends in
	// one (such a block has no successors).
	ret *ast.ReturnStmt
}

func (b *cfgBlock) addSucc(s *cfgBlock) {
	if s == nil {
		return
	}
	for _, t := range b.succs {
		if t == s {
			return
		}
	}
	b.succs = append(b.succs, s)
}

// funcCFG is one function body's graph.
type funcCFG struct {
	entry  *cfgBlock
	blocks []*cfgBlock
	// exit is the implicit fall-off-the-end block (reachable for
	// functions without a trailing return).
	exit *cfgBlock
	// defers are the function's defer statements in source order,
	// wherever they appear; they run on every exit path once executed.
	defers []*ast.DeferStmt
	// blockOf locates the block holding each tracked statement.
	blockOf map[ast.Stmt]*cfgBlock
}

// cfgLoop tracks the jump targets of one enclosing breakable/continuable
// construct.
type cfgLoop struct {
	label   string
	breakTo *cfgBlock
	contTo  *cfgBlock // nil for switch/select (continue skips them)
}

type cfgBuilder struct {
	cfg   *funcCFG
	loops []cfgLoop
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	cfg := &funcCFG{blockOf: map[ast.Stmt]*cfgBlock{}}
	b := &cfgBuilder{cfg: cfg}
	cfg.entry = b.newBlock()
	cfg.exit = b.newBlock()
	last := b.stmts(cfg.entry, body.List, "")
	if last != nil {
		last.addSucc(cfg.exit)
	}
	return cfg
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

func (b *cfgBuilder) add(blk *cfgBlock, s ast.Stmt) {
	blk.stmts = append(blk.stmts, s)
	b.cfg.blockOf[s] = blk
}

// stmts threads list through cur, returning the live trailing block
// (nil when every path has returned or jumped away).
func (b *cfgBuilder) stmts(cur *cfgBlock, list []ast.Stmt, label string) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a return/branch: park it in a fresh
			// disconnected block so analyzers still see its statements.
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s, label)
		label = ""
	}
	return cur
}

func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt, label string) *cfgBlock {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		b.add(cur, st)
		cur.ret = st
		return nil

	case *ast.BranchStmt:
		b.add(cur, st)
		b.branch(cur, st)
		return nil

	case *ast.LabeledStmt:
		// The label names the immediately following construct; thread it
		// through so labeled break/continue resolve.
		next := b.newBlock()
		cur.addSucc(next)
		return b.stmt(next, st.Stmt, st.Label.Name)

	case *ast.BlockStmt:
		return b.stmts(cur, st.List, "")

	case *ast.IfStmt:
		if st.Init != nil {
			b.add(cur, st.Init)
		}
		b.add(cur, st) // the condition evaluation
		thenB := b.newBlock()
		cur.addSucc(thenB)
		join := b.newBlock()
		thenEnd := b.stmts(thenB, st.Body.List, "")
		if thenEnd != nil {
			thenEnd.addSucc(join)
		}
		if st.Else != nil {
			elseB := b.newBlock()
			cur.addSucc(elseB)
			elseEnd := b.stmt(elseB, st.Else, "")
			if elseEnd != nil {
				elseEnd.addSucc(join)
			}
		} else {
			cur.addSucc(join)
		}
		return join

	case *ast.ForStmt:
		if st.Init != nil {
			b.add(cur, st.Init)
		}
		head := b.newBlock()
		cur.addSucc(head)
		b.add(head, st) // condition evaluation
		body := b.newBlock()
		head.addSucc(body)
		exit := b.newBlock()
		if st.Cond != nil {
			head.addSucc(exit)
		}
		post := b.newBlock()
		if st.Post != nil {
			b.add(post, st.Post)
		}
		post.addSucc(head)
		b.loops = append(b.loops, cfgLoop{label: label, breakTo: exit, contTo: post})
		bodyEnd := b.stmts(body, st.Body.List, "")
		b.loops = b.loops[:len(b.loops)-1]
		if bodyEnd != nil {
			bodyEnd.addSucc(post)
		}
		return exit

	case *ast.RangeStmt:
		head := b.newBlock()
		cur.addSucc(head)
		b.add(head, st)
		body := b.newBlock()
		exit := b.newBlock()
		head.addSucc(body)
		head.addSucc(exit)
		b.loops = append(b.loops, cfgLoop{label: label, breakTo: exit, contTo: head})
		bodyEnd := b.stmts(body, st.Body.List, "")
		b.loops = b.loops[:len(b.loops)-1]
		if bodyEnd != nil {
			bodyEnd.addSucc(head)
		}
		return exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.add(cur, s)
		var clauses []ast.Stmt
		switch x := s.(type) {
		case *ast.SwitchStmt:
			if x.Init != nil {
				b.add(cur, x.Init)
			}
			clauses = x.Body.List
		case *ast.TypeSwitchStmt:
			clauses = x.Body.List
		case *ast.SelectStmt:
			clauses = x.Body.List
		}
		join := b.newBlock()
		b.loops = append(b.loops, cfgLoop{label: label, breakTo: join})
		hasDefault := false
		for _, c := range clauses {
			caseB := b.newBlock()
			cur.addSucc(caseB)
			var body []ast.Stmt
			switch cc := c.(type) {
			case *ast.CaseClause:
				if cc.List == nil {
					hasDefault = true
				}
				body = cc.Body
			case *ast.CommClause:
				if cc.Comm == nil {
					hasDefault = true
				} else {
					b.add(caseB, cc.Comm)
				}
				body = cc.Body
			}
			end := b.stmts(caseB, body, "")
			if end != nil {
				end.addSucc(join)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		// A switch without a default may match no case and fall through;
		// a select always takes some case (default included as a clause
		// above), as does a switch with a default.
		if _, isSelect := s.(*ast.SelectStmt); !isSelect && !hasDefault {
			cur.addSucc(join)
		}
		return join

	case *ast.DeferStmt:
		b.add(cur, st)
		b.cfg.defers = append(b.cfg.defers, st)
		return cur

	default:
		b.add(cur, s)
		return cur
	}
}

// branch wires a break/continue/goto to its target.
func (b *cfgBuilder) branch(cur *cfgBlock, st *ast.BranchStmt) {
	name := ""
	if st.Label != nil {
		name = st.Label.Name
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		l := b.loops[i]
		switch st.Tok.String() {
		case "break":
			if name == "" || l.label == name {
				cur.addSucc(l.breakTo)
				return
			}
		case "continue":
			if l.contTo != nil && (name == "" || l.label == name) {
				cur.addSucc(l.contTo)
				return
			}
		}
	}
	// goto, fallthrough, or an unresolved label: connect conservatively
	// to the function exit so no path is invented.
	cur.addSucc(b.cfg.exit)
}

// shallowNode returns the part of s that actually executes within s's
// own basic block. Compound statements (if/for/range/switch/select) are
// recorded in the block that evaluates their condition, but their
// bodies live in successor blocks — a path predicate that inspected the
// whole subtree would credit one branch's release to every path through
// the condition.
func shallowNode(s ast.Stmt) ast.Node {
	switch x := s.(type) {
	case *ast.IfStmt:
		return x.Cond
	case *ast.ForStmt:
		if x.Cond != nil {
			return x.Cond
		}
		return nil
	case *ast.RangeStmt:
		return x.X
	case *ast.SwitchStmt:
		if x.Tag != nil {
			return x.Tag
		}
		return nil
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		return nil
	default:
		// Plain statements — including defer and go, whose full subtree
		// (deferred closes, ownership-capturing goroutines) does belong
		// to this block.
		return s
	}
}

// walk is the one path search under every query below: a depth-first
// walk from statement i of blk in which a path ends at the first
// statement stop accepts. Each function exit a path reaches unstopped —
// its return statement, or nil for falling off the end — is handed to
// exit, and the walk reports whether there was none; it gives up at once
// when exit returns false. Each block is entered from the top at most
// once, and a block with no successors that is not an exit (a loop with
// no way out, unreachable code) ends its path quietly: the queries are
// about what holds when the function returns.
func (c *funcCFG) walk(blk *cfgBlock, i int, stop func(ast.Stmt) bool, exit func(*ast.ReturnStmt) bool) bool {
	type state struct {
		blk  *cfgBlock
		from int
	}
	none := true
	seen := map[*cfgBlock]bool{}
	stack := []state{{blk, i}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if slices.ContainsFunc(st.blk.stmts[st.from:], stop) {
			continue
		}
		if st.blk.ret != nil || st.blk == c.exit {
			none = false
			if !exit(st.blk.ret) {
				return false
			}
		}
		for _, s := range st.blk.succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, state{s, 0})
			}
		}
	}
	return none
}

// firstExit stops a walk at the first exit it reaches.
func firstExit(*ast.ReturnStmt) bool { return false }

// everyExit lets a walk go on past every exit.
func everyExit(*ast.ReturnStmt) bool { return true }

// everyPathSatisfies reports whether every path from the statement after
// `from` to a function exit passes a statement for which pred is true,
// handing each exit reached without one to exit (see walk). A deferred
// statement satisfying pred covers every exit at once: a deferred call
// when it comes after `from`, as it evaluates its operands when deferred;
// a deferred closure wherever it sits, as it reads variables when it runs.
func (c *funcCFG) everyPathSatisfies(from ast.Stmt, pred func(ast.Stmt) bool, exit func(*ast.ReturnStmt) bool) bool {
	blk, ok := c.blockOf[from]
	if !ok {
		return false
	}
	for _, d := range c.defers {
		if _, closure := d.Call.Fun.(*ast.FuncLit); (closure || d.Pos() > from.Pos()) && pred(d) {
			return true
		}
	}
	return c.walk(blk, slices.Index(blk.stmts, from)+1, pred, exit)
}

// allExitPathsSatisfy reports whether every path from the function entry
// to an exit passes a pred-satisfying statement. Defer statements sit
// in-line in their blocks, so a satisfying defer covers exactly the paths
// that execute it — which is the sound reading.
func (c *funcCFG) allExitPathsSatisfy(pred func(ast.Stmt) bool) bool {
	return c.walk(c.entry, 0, pred, firstExit)
}

// reacquiredWithoutRelease reports whether some path re-executes the
// acquisition acq without passing a release in between — the retry-loop
// shape that abandons the previous resource.
func (c *funcCFG) reacquiredWithoutRelease(acq ast.Stmt, rel func(ast.Stmt) bool) bool {
	blk := c.blockOf[acq]
	again := false
	c.walk(blk, slices.Index(blk.stmts, acq)+1, func(s ast.Stmt) bool {
		again = again || s == acq
		return again || rel(s)
	}, everyExit)
	return again
}

// pathExistsTo reports whether any path leads from a statement
// satisfying src to dst (used to scope checks to returns reachable after
// a resource is live).
func (c *funcCFG) pathExistsTo(src func(ast.Stmt) bool, dst ast.Stmt) bool {
	for _, blk := range c.blocks {
		if i := slices.IndexFunc(blk.stmts, src); i >= 0 {
			found := false
			c.walk(blk, i, func(s ast.Stmt) bool {
				found = found || s == dst
				return found
			}, everyExit)
			if found {
				return true
			}
		}
	}
	return false
}

// returns lists every return statement in the graph.
func (c *funcCFG) returns() []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	for _, blk := range c.blocks {
		if blk.ret != nil {
			out = append(out, blk.ret)
		}
	}
	return out
}

// precedingChain collects the statements strictly before dst within its
// block plus those of unique-predecessor ancestor blocks — the linear
// history a reader sees above a return statement.
func (c *funcCFG) precedingChain(dst ast.Stmt) []ast.Stmt {
	blk, ok := c.blockOf[dst]
	if !ok {
		return nil
	}
	preds := map[*cfgBlock][]*cfgBlock{}
	for _, b := range c.blocks {
		for _, s := range b.succs {
			preds[s] = append(preds[s], b)
		}
	}
	var out []ast.Stmt
	for _, s := range blk.stmts {
		if s == dst {
			break
		}
		out = append(out, s)
	}
	seen := map[*cfgBlock]bool{blk: true}
	for {
		ps := preds[blk]
		if len(ps) != 1 || seen[ps[0]] {
			break
		}
		blk = ps[0]
		seen[blk] = true
		out = append(out, blk.stmts...)
	}
	return out
}
