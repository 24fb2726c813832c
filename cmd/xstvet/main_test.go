package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// seededModule is a module named xst whose catalog package begins a
// transaction and returns on one path without ending it.
var seededModule = map[string]string{
	"go.mod": "module xst\n\ngo 1.22\n",
	"internal/catalog/txn.go": `package catalog

type txn struct{}

func (t *txn) Commit() error { return nil }
func (t *txn) Abort()        {}

func begin() *txn { return &txn{} }

func leak(skip bool) error {
	tx := begin()
	if skip {
		return nil
	}
	return tx.Commit()
}
`,
}

// TestListReportsFindings pins -list to the plain run's contract: the
// table comes first, then the findings, and the exit status is 1.
func TestListReportsFindings(t *testing.T) {
	dir := t.TempDir()
	for name, src := range seededModule {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	for _, args := range [][]string{{"./..."}, {"-list", "./..."}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("xstvet %s: exit %d, want 1\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, &stdout, &stderr)
		}
		if !strings.Contains(stdout.String(), "transaction tx is not committed or aborted on every return path") {
			t.Errorf("xstvet %s: the txnend finding is missing from stdout:\n%s", strings.Join(args, " "), &stdout)
		}
		if args[0] == "-list" && !regexp.MustCompile(`(?m)^txnend\s+\S+ms\s+1 finding\(s\)`).MatchString(stdout.String()) {
			t.Errorf("xstvet -list: no txnend row counting one finding:\n%s", &stdout)
		}
	}
}
