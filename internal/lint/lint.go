// Package lint is xstvet's analysis framework: a deliberately small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic, suggested fixes), a lightweight
// intraprocedural CFG (cfg.go) with a summary-based interprocedural
// layer (summary.go), and the twelve analyzers that enforce the
// algebra's invariants:
//
//	setmutate — canonical slices handed out by (*core.Set).Members and
//	            friends are never mutated or retained, and slices passed
//	            to ownSet/NewSet inside internal/core are not touched
//	            after the ownership transfer.
//	ctxloop   — member loops inside context-carrying functions in
//	            internal/{algebra,xlang,exec,fed,trace,index} poll
//	            cancellation, and the non-Ctx convenience wrappers are
//	            pure delegations.
//	valueeq   — core.Value operands are compared with core.Equal (or a
//	            digest), never ==/!=/switch, and never used as map keys.
//	lockheld  — no channel sends, net.Conn writes, xlang.Eval* calls, or
//	            calls to (transitively) blocking functions while a
//	            sync.Mutex/RWMutex is held in
//	            internal/{server,catalog,store,fed,trace}.
//	atomicmix — struct fields accessed through sync/atomic are never
//	            also read or written plainly.
//	goleak    — every goroutine in internal/{exec,fed,server} is joined
//	            (WaitGroup, channel drain) or bounded by a ctx-done
//	            select; Gather's drain+join discipline as a contract.
//	sendguard — no bare channel send in a worker goroutine without a
//	            ctx-done select arm.
//
// and five rows of one lifecycle engine (lifecycle.go), which checks
// that a value made in a function is released on every path out of it:
//
//	spanclose — trace spans (trace.NewRoot/NewRootTrace, Span.Start) are
//	            ended, so span trees never silently truncate.
//	opclose   — locally-created exec.Operators are Closed or handed to
//	            an owner, including on compile-error unwinds.
//	connclose — net.Conn / fed site connections are released, never
//	            abandoned by retry loops, and error-path teardown of
//	            receiver-held conns is symmetric.
//	txnend    — locally-begun transactions are committed or aborted.
//	release   — pinned read snapshots (Env.Pin, BeginRead, NewView) are
//	            released.
//
// Analyzers that have fired on the tree outside their fixtures (the
// fixes carry regression tests): ctxloop in PR 2 (algebra/closure.go's
// closure loops, product.go's Cartesian) and PR 37 (closure.go's
// keyGraph.build); valueeq in PR 2 (core.Equal's identity fast path,
// waived); opclose in PR 7 (plan's compile unwinds, plan/close_test.go);
// connclose, lockheld and goleak in PR 7 (fed's Remote.Next, gatherCache
// and BootLocal, fed/lifecycle_test.go). setmutate, atomicmix,
// spanclose, sendguard, txnend and release have not.
//
// The theory needs these mechanically: Childs' compatibility results
// assume set objects behave like values — canonical, immutable,
// structurally comparable — and the serving layer's latency story
// assumes every hot loop is abortable and every composed operation's
// resources die with their query. A human code-review convention cannot
// keep either true as the codebase grows; a required CI gate can.
//
// Violations that are intentional (e.g. the pointer-identity fast path
// inside core.Equal itself) are waived with a directive comment on the
// same or the preceding line:
//
//	//lint:ignore <analyzer> <reason>
//
// A waiver that suppresses nothing is itself reported (as analyzer
// "staleignore", with a suggested fix deleting the comment) whenever
// its analyzer runs, so waivers cannot outlive the violation they
// excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in reports and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run reports violations found in the pass's package.
	Run func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Summaries is the interprocedural fact store. Run builds a
	// single-package store on the fly; a Runner shares one across the
	// whole module so cross-package facts (exec.Stream closes its
	// operator) reach every pass.
	Summaries *Summaries

	diagnostics []Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Fixes   []SuggestedFix
}

// SuggestedFix is an optional safe rewrite for a diagnostic.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records a violation with optional suggested fixes.
func (p *Pass) Report(d Diagnostic) { p.diagnostics = append(p.diagnostics, d) }

// All returns the twelve invariant analyzers in report order.
func All() []*Analyzer {
	return []*Analyzer{
		SetMutateAnalyzer,
		CtxLoopAnalyzer,
		ValueEqAnalyzer,
		LockHeldAnalyzer,
		AtomicMixAnalyzer,
		SpanCloseAnalyzer,
		GoLeakAnalyzer,
		OpCloseAnalyzer,
		ConnCloseAnalyzer,
		SendGuardAnalyzer,
		TxnEndAnalyzer,
		ReleaseAnalyzer,
	}
}

// Finding is one diagnostic resolved to a file position. Edits carries
// the first suggested fix's edits resolved to byte offsets, ready for a
// driver to apply.
type Finding struct {
	Analyzer   string
	Position   token.Position
	Diagnostic Diagnostic
	Edits      []ResolvedEdit
}

// ResolvedEdit is a TextEdit resolved to byte offsets in a file.
type ResolvedEdit struct {
	Filename   string
	Start, End int
	NewText    string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Diagnostic.Message, f.Analyzer)
}

// Run applies the analyzers to a loaded package and returns the surviving
// findings sorted by position, with //lint:ignore-waived ones removed.
// Interprocedural summaries are built from this one package (plus the
// seed table); use a Runner for module-wide facts.
func Run(pkg *LoadedPackage, analyzers []*Analyzer) ([]Finding, error) {
	sums := NewSummaries()
	sums.AddPackage(pkg)
	sums.Finalize()
	return runWith(pkg, analyzers, sums, nil)
}

// Runner shares one interprocedural summary store and per-analyzer
// timing across every package of a run — the cmd/xstvet shape: add all
// packages, Finalize, then Run each.
type Runner struct {
	analyzers []*Analyzer
	sums      *Summaries

	mu      sync.Mutex
	timings map[string]time.Duration
}

// NewRunner prepares a run of the given analyzers.
func NewRunner(analyzers []*Analyzer) *Runner {
	return &Runner{analyzers: analyzers, sums: NewSummaries(), timings: map[string]time.Duration{}}
}

// AddPackage feeds one loaded package's functions into the summary
// store. Call for every package before the first Run.
func (r *Runner) AddPackage(pkg *LoadedPackage) { r.sums.AddPackage(pkg) }

// Finalize propagates transitive summary facts; call once after the
// last AddPackage.
func (r *Runner) Finalize() { r.sums.Finalize() }

// Run applies the runner's analyzers to one package. Safe for
// concurrent use across distinct packages once Finalize has run.
func (r *Runner) Run(pkg *LoadedPackage) ([]Finding, error) {
	return runWith(pkg, r.analyzers, r.sums, r.addTiming)
}

func (r *Runner) addTiming(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timings[name] += d
}

// Timings returns cumulative wall time per analyzer across all Run
// calls so far.
func (r *Runner) Timings() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]time.Duration, len(r.timings))
	for k, v := range r.timings {
		out[k] = v
	}
	return out
}

// runWith is the shared per-package driver: run each analyzer, filter
// waived diagnostics (marking the directives that earned their keep),
// then report any stale waiver for an analyzer that ran.
func runWith(pkg *LoadedPackage, analyzers []*Analyzer, sums *Summaries, timed func(string, time.Duration)) ([]Finding, error) {
	ignores := collectIgnores(pkg.Fset, pkg.Files)
	var out []Finding
	for _, a := range analyzers {
		start := time.Now()
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			Summaries: sums,
		}
		err := a.Run(pass)
		if timed != nil {
			timed(a.Name, time.Since(start))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diagnostics {
			position := pkg.Fset.Position(d.Pos)
			if ignores.covers(a.Name, position) {
				continue
			}
			f := Finding{Analyzer: a.Name, Position: position, Diagnostic: d}
			if len(d.Fixes) > 0 {
				for _, e := range d.Fixes[0].Edits {
					start := pkg.Fset.Position(e.Pos)
					end := pkg.Fset.Position(e.End)
					if start.Filename == "" || start.Filename != end.Filename {
						continue
					}
					f.Edits = append(f.Edits, ResolvedEdit{
						Filename: start.Filename,
						Start:    start.Offset,
						End:      end.Offset,
						NewText:  e.NewText,
					})
				}
			}
			out = append(out, f)
		}
	}
	out = append(out, staleWaivers(pkg, analyzers, ignores)...)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Position, out[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// staleWaivers reports //lint:ignore directives that suppressed nothing.
// Only directives naming an analyzer that actually ran are assessed
// ("all" waivers only under the full suite), so a single-analyzer
// fixture run never misjudges another analyzer's waiver. Each finding
// carries a fix deleting the directive comment.
func staleWaivers(pkg *LoadedPackage, analyzers []*Analyzer, ignores ignoreSet) []Finding {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	fullSuite := true
	for _, a := range All() {
		if !ran[a.Name] {
			fullSuite = false
			break
		}
	}
	var out []Finding
	for _, byLine := range ignores {
		for _, dirs := range byLine {
			for _, d := range dirs {
				if d.used {
					continue
				}
				if !ran[d.name] && !(d.name == "all" && fullSuite) {
					continue
				}
				out = append(out, Finding{
					Analyzer: "staleignore",
					Position: pkg.Fset.Position(d.pos),
					Diagnostic: Diagnostic{
						Pos:     d.pos,
						Message: fmt.Sprintf("stale //lint:ignore %s — no %s diagnostic here to suppress; delete the waiver", d.name, d.name),
					},
					Edits: []ResolvedEdit{{
						Filename: pkg.Fset.Position(d.pos).Filename,
						Start:    pkg.Fset.Position(d.pos).Offset,
						End:      pkg.Fset.Position(d.end).Offset,
						NewText:  "",
					}},
				})
			}
		}
	}
	return out
}

// ignoreRx matches waiver directives: //lint:ignore <name> <reason>.
var ignoreRx = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s+\S`)

// ignoreDirective is one waiver comment; used tracks whether it
// suppressed at least one diagnostic this run (stale otherwise).
type ignoreDirective struct {
	name     string
	pos, end token.Pos
	used     bool
}

// ignoreSet maps file → line → waiver directives on that line.
type ignoreSet map[string]map[int][]*ignoreDirective

// covers reports whether a diagnostic at pos is waived for the
// analyzer, marking the earning directive as used.
func (s ignoreSet) covers(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	covered := false
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, d := range lines[l] {
			if d.name == analyzer || d.name == "all" {
				d.used = true
				covered = true
			}
		}
	}
	return covered
}

func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreSet {
	out := ignoreSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				byLine := out[p.Filename]
				if byLine == nil {
					byLine = map[int][]*ignoreDirective{}
					out[p.Filename] = byLine
				}
				byLine[p.Line] = append(byLine[p.Line], &ignoreDirective{
					name: m[1], pos: c.Pos(), end: c.End(),
				})
			}
		}
	}
	return out
}

// --- shared type helpers -------------------------------------------------

// pathMatches reports whether a package path names one of the targets.
// Besides an exact match, a bare fixture path like "algebra" matches the
// target "xst/internal/algebra", so the analyzers behave identically on
// the real tree and on testdata packages.
func pathMatches(pkgPath string, targets ...string) bool {
	for _, t := range targets {
		if pkgPath == t || strings.HasSuffix(t, "/"+pkgPath) {
			return true
		}
	}
	return false
}

// namedIn reports whether t (after pointer indirection) is the named type
// pkgTarget.name, using the same suffix matching as pathMatches.
func namedIn(t types.Type, name string, pkgTargets ...string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return pathMatches(obj.Pkg().Path(), pkgTargets...)
}

// coreValueType reports whether t is the core.Value interface.
func coreValueType(t types.Type) bool {
	return namedIn(t, "Value", "xst/internal/core")
}

// coreSetPtr reports whether t is *core.Set (or core.Set).
func coreSetPtr(t types.Type) bool {
	return namedIn(t, "Set", "xst/internal/core")
}

// calleeName splits a call into (receiver expression, bare function or
// method name). The receiver is nil for plain function calls.
func calleeName(call *ast.CallExpr) (recv ast.Expr, name string) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return nil, fn.Name
	case *ast.SelectorExpr:
		return fn.X, fn.Sel.Name
	}
	return nil, ""
}

// isPkgCall reports whether the call is a selector call pkg.name where pkg
// resolves to the package with the given path (e.g. "sort", "sync/atomic").
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}
