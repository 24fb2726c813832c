package xst_test

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the documents whose code references must resolve.
// ROADMAP.md and CHANGES.md are plans and history, and benchmarks/
// documents a frozen module; none of them is checked.
var checkedDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", "LANGUAGE.md", "REPRODUCTION.md"}

var (
	// codeSpan is one inline code span of a line.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// testRef is a test, benchmark or fuzz target named in a span.
	testRef = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// dottedRef is a span that is one dotted name, such as pkg.Name,
	// Type.Method or (*Type).Method, optionally called.
	dottedRef = regexp.MustCompile(`^\(?\*?([A-Za-z_]\w*)\)?((?:\.[A-Za-z_]\w*)+)(?:\(.*\))?$`)
	// fileExt are the last segments that make a dotted span a file name.
	fileExt = map[string]bool{"go": true, "md": true, "json": true, "yml": true, "sh": true, "golden": true, "mod": true}
)

// goDecls is what the Go sources under a root declare.
type goDecls struct {
	tests map[string]bool            // Test/Benchmark/Fuzz functions
	pkgs  map[string]map[string]bool // internal package name → top-level names and methods
	types map[string]map[string]bool // type name → methods and fields
	alias map[string]string          // alias type name → target type name
}

// parseDecls parses every .go file under root, outside testdata
// directories, with go/parser. Packages under internal/ and the root
// package are the internal ones whose names a document may cite.
func parseDecls(root string) (*goDecls, error) {
	d := &goDecls{
		tests: map[string]bool{},
		pkgs:  map[string]map[string]bool{},
		types: map[string]map[string]bool{},
		alias: map[string]string{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		internal := rel == "." || strings.HasPrefix(filepath.ToSlash(rel), "internal/")
		d.add(f, internal)
		return nil
	})
	return d, err
}

func (d *goDecls) add(f *ast.File, internal bool) {
	top := d.pkgs[f.Name.Name]
	if internal && top == nil {
		top = map[string]bool{}
		d.pkgs[f.Name.Name] = top
	}
	declare := func(name string) {
		if top != nil {
			top[name] = true
		}
	}
	member := func(typ, name string) {
		if d.types[typ] == nil {
			d.types[typ] = map[string]bool{}
		}
		d.types[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				declare(decl.Name.Name)
				if testRef.MatchString(decl.Name.Name) {
					d.tests[decl.Name.Name] = true
				}
				continue
			}
			if typ := recvName(decl.Recv.List[0].Type); typ != "" {
				member(typ, decl.Name.Name)
				declare(decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						declare(n.Name)
					}
				case *ast.TypeSpec:
					declare(spec.Name.Name)
					if d.types[spec.Name.Name] == nil {
						d.types[spec.Name.Name] = map[string]bool{}
					}
					if spec.Assign.IsValid() {
						d.alias[spec.Name.Name] = recvName(spec.Type)
					}
					for _, n := range memberNames(spec.Type) {
						member(spec.Name.Name, n)
					}
				}
			}
		}
	}
}

// recvName is the type name in a receiver or alias target expression.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// memberNames lists a struct's fields or an interface's methods,
// embedded ones by their type name.
func memberNames(e ast.Expr) []string {
	var list *ast.FieldList
	switch e := e.(type) {
	case *ast.StructType:
		list = e.Fields
	case *ast.InterfaceType:
		list = e.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range list.List {
		if len(f.Names) == 0 {
			if n := recvName(f.Type); n != "" {
				out = append(out, n)
			}
		}
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// hasMember reports whether some type named typ, or the type it
// aliases, has a method or field named name.
func (d *goDecls) hasMember(typ, name string) bool {
	for seen := 0; typ != "" && seen < 4; seen++ {
		if d.types[typ][name] {
			return true
		}
		typ = d.alias[typ]
	}
	return false
}

// hasTest reports whether a test pattern matches a declared test: a
// name, or a prefix of one, as `go test -run` reads it.
func (d *goDecls) hasTest(pattern string) bool {
	for name := range d.tests {
		if strings.HasPrefix(name, pattern) {
			return true
		}
	}
	return false
}

// resolve checks one dotted reference, first.rest…; it reports false
// only for a reference to an internal package or type that names
// nothing there. A package's names are its top-level declarations and
// its types' methods; first may name both a package and a type.
func (d *goDecls) resolve(first string, rest []string) bool {
	if fileExt[rest[len(rest)-1]] {
		return true
	}
	top, isPkg := d.pkgs[first]
	_, isType := d.types[first]
	if isType && d.hasMember(first, rest[0]) {
		return true
	}
	if !isPkg {
		return !isType
	}
	return top[rest[0]] && (len(rest) == 1 || d.types[rest[0]] == nil || d.hasMember(rest[0], rest[1]))
}

// metricNames are the benchmark's metric names that root's
// BENCHMARK.json declares, such as `store.get_ns`: spans that name a
// measurement, not code.
func metricNames(root string) (map[string]bool, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		out[m.Name] = true
	}
	return out, nil
}

// staleRefs lists the code references in the docs under root that
// resolve to nothing the Go sources there declare, as file:line: ref.
func staleRefs(root string, docs []string) ([]string, error) {
	d, err := parseDecls(root)
	if err != nil {
		return nil, err
	}
	metrics, err := metricNames(root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				span := strings.TrimSpace(m[1])
				bad := false
				for _, name := range testRef.FindAllString(span, -1) {
					if !d.hasTest(name) {
						bad = true
					}
				}
				if ref := dottedRef.FindStringSubmatch(span); ref != nil && !metrics[span] {
					if !d.resolve(ref[1], strings.Split(ref[2][1:], ".")) {
						bad = true
					}
				}
				if bad {
					out = append(out, doc+":"+strconv.Itoa(i+1)+": "+span)
				}
			}
		}
	}
	return out, nil
}

// TestDocsResolve checks that every test, benchmark and fuzz target the
// design documents name in code spans exists (a prefix of one counts,
// as for `go test -run`), and that every pkg.Name, pkg.Type.Member and
// Type.Member they name in an internal package or type is declared.
func TestDocsResolve(t *testing.T) {
	stale, err := staleRefs(".", checkedDocs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stale {
		t.Errorf("stale code reference %s", s)
	}
}

// TestDocsResolveCatchesStale seeds a stale reference of each kind into
// a scratch module and expects exactly those to be reported.
func TestDocsResolveCatchesStale(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/shelf/shelf.go", "package shelf\n\ntype Book struct{ Title string }\n\nfunc (b *Book) Read() {}\n\nfunc Open() {}\n")
	write("internal/shelf/shelf_test.go", "package shelf\n\nimport \"testing\"\n\nfunc TestShelfOpens(t *testing.T) {}\n")
	write("DOC.md", strings.Join([]string{
		"Resolved: `TestShelfOpens`, `TestShelf`, `shelf.Open`, `shelf.Book.Read`,",
		"`Book.Title`, `(*Book).Read`, `shelf.go`, `sync.Pool`, `go test -run TestShelfOpens`.",
		"Stale: `TestShelfCloses` and `shelf.Close()`",
		"and `Book.Write` and `shelf.Book.Author`.",
		"```",
		"`TestInsideAFence`",
		"```",
	}, "\n"))
	stale, err := staleRefs(root, []string{"DOC.md"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"DOC.md:3: TestShelfCloses", "DOC.md:3: shelf.Close()",
		"DOC.md:4: Book.Write", "DOC.md:4: shelf.Book.Author",
	}
	if strings.Join(stale, "\n") != strings.Join(want, "\n") {
		t.Fatalf("reported:\n%s\nwant:\n%s", strings.Join(stale, "\n"), strings.Join(want, "\n"))
	}
}
