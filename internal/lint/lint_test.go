package lint_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xst/internal/lint"
	"xst/internal/lint/linttest"
)

// sharedLoader runs one `go list -export` for the whole module; every
// fixture test reuses it.
var sharedLoader = sync.OnceValues(func() (*lint.Loader, error) {
	return lint.NewLoader("../..", "./...")
})

func loader(t *testing.T) *lint.Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	return l
}

func TestSetMutateClients(t *testing.T) {
	linttest.Run(t, loader(t), lint.SetMutateAnalyzer, "clients")
}

func TestSetMutateOwnership(t *testing.T) {
	linttest.Run(t, loader(t), lint.SetMutateAnalyzer, "core")
}

func TestCtxLoop(t *testing.T) {
	linttest.Run(t, loader(t), lint.CtxLoopAnalyzer, "algebra")
}

func TestCtxLoopExec(t *testing.T) {
	linttest.Run(t, loader(t), lint.CtxLoopAnalyzer, "exec")
}

func TestValueEq(t *testing.T) {
	linttest.Run(t, loader(t), lint.ValueEqAnalyzer, "valueeq")
}

func TestLockHeld(t *testing.T) {
	linttest.Run(t, loader(t), lint.LockHeldAnalyzer, "server")
}

func TestAtomicMix(t *testing.T) {
	linttest.Run(t, loader(t), lint.AtomicMixAnalyzer, "atomicmix")
}

func TestSpanClose(t *testing.T) {
	linttest.Run(t, loader(t), lint.SpanCloseAnalyzer, "spanclose")
}

func TestSpanCloseFed(t *testing.T) {
	linttest.RunAs(t, loader(t), lint.SpanCloseAnalyzer, "spanfed", "fed")
}

func TestSpanCloseSysview(t *testing.T) {
	linttest.RunAs(t, loader(t), lint.SpanCloseAnalyzer, "spansys", "sysview")
}

// TestValueEqSuggestedFix pins the ==/!= rewrite the -fix driver applies.
func TestValueEqSuggestedFix(t *testing.T) {
	var eq, neq bool
	for _, f := range linttest.Findings(t, loader(t), lint.ValueEqAnalyzer, "valueeq") {
		if len(f.Edits) != 1 {
			continue
		}
		switch f.Edits[0].NewText {
		case "core.Equal(a, b)":
			eq = true
		case "!core.Equal(a, b)":
			neq = true
		}
	}
	if !eq || !neq {
		t.Errorf("expected core.Equal rewrites for both == and != in the valueeq fixture (eq=%v, neq=%v)", eq, neq)
	}
}

func TestCtxLoopFed(t *testing.T) {
	linttest.Run(t, loader(t), lint.CtxLoopAnalyzer, "fed")
}

func TestGoLeak(t *testing.T) {
	linttest.RunAs(t, loader(t), lint.GoLeakAnalyzer, "goleak", "exec")
}

func TestSendGuard(t *testing.T) {
	linttest.RunAs(t, loader(t), lint.SendGuardAnalyzer, "sendguard", "exec")
}

func TestOpClose(t *testing.T) {
	linttest.RunAs(t, loader(t), lint.OpCloseAnalyzer, "opclose", "plan")
}

func TestConnClose(t *testing.T) {
	linttest.RunAs(t, loader(t), lint.ConnCloseAnalyzer, "connclose", "fed")
}

func TestTxnEnd(t *testing.T) {
	linttest.RunAs(t, loader(t), lint.TxnEndAnalyzer, "txnend", "catalog")
}

func TestRelease(t *testing.T) {
	linttest.Run(t, loader(t), lint.ReleaseAnalyzer, "release")
}

func TestLockHeldTrace(t *testing.T) {
	linttest.Run(t, loader(t), lint.LockHeldAnalyzer, "trace")
}

func TestCtxLoopIndex(t *testing.T) {
	linttest.Run(t, loader(t), lint.CtxLoopAnalyzer, "index")
}

func TestOpCloseIndex(t *testing.T) {
	linttest.RunAs(t, loader(t), lint.OpCloseAnalyzer, "indexop", "index")
}

// TestStaleWaiver pins the waiver audit: a live //lint:ignore suppresses
// its diagnostic silently, a stale one is reported with a deletion fix.
func TestStaleWaiver(t *testing.T) {
	l := loader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "waiver"), "server")
	if err != nil {
		t.Fatalf("loading waiver fixture: %v", err)
	}
	findings, err := lint.Run(pkg, []*lint.Analyzer{lint.LockHeldAnalyzer})
	if err != nil {
		t.Fatalf("running lockheld: %v", err)
	}
	var stale []lint.Finding
	for _, f := range findings {
		switch f.Analyzer {
		case "staleignore":
			stale = append(stale, f)
		case "lockheld":
			t.Errorf("live waiver failed to suppress: %v", f)
		default:
			t.Errorf("unexpected finding: %v", f)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("want exactly one stale-waiver finding, got %d: %v", len(stale), stale)
	}
	f := stale[0]
	if len(f.Edits) != 1 || f.Edits[0].NewText != "" {
		t.Errorf("stale waiver should carry a deletion edit, got %+v", f.Edits)
	}
}

// TestWaiverNamesUnderFullSuite pins the analyzer names waivers match
// under the full suite, the four lifecycle rows included: each live
// //lint:ignore suppresses its finding, and each stale one — exactly one
// per name in the fixture — is reported.
func TestWaiverNamesUnderFullSuite(t *testing.T) {
	pkg, err := loader(t).LoadDir(filepath.Join("testdata", "src", "waiver"), "server")
	if err != nil {
		t.Fatalf("loading waiver fixture: %v", err)
	}
	findings, err := lint.Run(pkg, lint.All())
	if err != nil {
		t.Fatalf("running the suite: %v", err)
	}
	stale := map[string]int{}
	for _, f := range findings {
		if f.Analyzer != "staleignore" {
			t.Errorf("live waiver failed to suppress: %v", f)
			continue
		}
		stale[strings.Fields(f.Diagnostic.Message)[2]]++
	}
	want := map[string]int{"lockheld": 1, "opclose": 1, "connclose": 1, "txnend": 1, "spanclose": 1}
	if !reflect.DeepEqual(stale, want) {
		t.Errorf("stale waivers by analyzer = %v, want %v", stale, want)
	}
}

// TestRunnerConcurrent exercises the shared summary store and timing
// registry from concurrent Run calls — the cmd/xstvet shape — and is
// meaningful mainly under -race.
func TestRunnerConcurrent(t *testing.T) {
	l := loader(t)
	fixtures := []struct{ dir, as string }{
		{"goleak", "exec"},
		{"opclose", "plan"},
		{"connclose", "fed"},
		{"trace", "trace"},
	}
	r := lint.NewRunner(lint.All())
	var pkgs []*lint.LoadedPackage
	for _, fx := range fixtures {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", fx.dir), fx.as)
		if err != nil {
			t.Fatalf("loading %s fixture: %v", fx.dir, err)
		}
		pkgs = append(pkgs, pkg)
		r.AddPackage(pkg)
	}
	r.Finalize()

	want := make([]int, len(pkgs))
	for i, pkg := range pkgs {
		fs, err := r.Run(pkg)
		if err != nil {
			t.Fatalf("sequential run of %s: %v", fixtures[i].dir, err)
		}
		want[i] = len(fs)
	}

	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs, err := r.Run(pkg)
			if err != nil {
				t.Errorf("concurrent run of %s: %v", fixtures[i].dir, err)
				return
			}
			if len(fs) != want[i] {
				t.Errorf("concurrent run of %s: got %d findings, want %d", fixtures[i].dir, len(fs), want[i])
			}
		}()
	}
	wg.Wait()

	if tm := r.Timings(); len(tm) != len(lint.All()) {
		t.Errorf("timings cover %d analyzers, want %d", len(tm), len(lint.All()))
	}
}
