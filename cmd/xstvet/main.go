// Command xstvet is the repository's invariant checker: a multichecker
// driver for the twelve internal/lint analyzers (setmutate, ctxloop,
// valueeq, lockheld, atomicmix, spanclose, goleak, opclose, connclose,
// sendguard, txnend, release) that enforce the algebra's value semantics and the
// server's cancellation, lock and lifecycle discipline. Analysis is
// interprocedural: function summaries are built across every analyzed
// package before the analyzers run, so a callee that blocks or takes
// ownership of its argument is known at each call site.
//
// Usage:
//
//	go run ./cmd/xstvet ./...          # report violations, exit 1 if any
//	go run ./cmd/xstvet -fix ./...     # additionally apply safe rewrites
//	go run ./cmd/xstvet -json ./...    # findings as a JSON array on stdout
//	go run ./cmd/xstvet -list ./...    # also list per-analyzer wall time and counts
//
// Intentional violations are waived in source with
// //lint:ignore <analyzer> <reason> on the same or the preceding line;
// waivers that no longer suppress anything are themselves reported (and
// deleted by -fix).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"xst/internal/lint"
)

// jsonFinding is the CI-facing diagnostic shape emitted by -json.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is xstvet over the packages args names, relative to the working
// directory: it returns 0 when nothing is found, 1 on findings and 2 when
// the packages cannot be loaded or a fix cannot be written.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("xstvet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	fix := flags.Bool("fix", false, "apply suggested fixes to the source files")
	list := flags.Bool("list", false, "list the analyzers with wall time and finding counts, then report as usual")
	jsonOut := flags.Bool("json", false, "emit findings as a JSON array on stdout")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: xstvet [-fix] [-json] [-list] [packages]\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	analyzers := lint.All()
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Load every package up front and feed the summary store, so each
	// pass sees module-wide interprocedural facts.
	var pkgs []*lint.LoadedPackage
	runner := lint.NewRunner(analyzers)
	for _, path := range loader.ModulePackages("xst") {
		pkg, err := loader.LoadSource(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pkgs = append(pkgs, pkg)
		runner.AddPackage(pkg)
	}
	runner.Finalize()

	var findings []lint.Finding
	for _, pkg := range pkgs {
		fs, err := runner.Run(pkg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		findings = append(findings, fs...)
	}

	if *list {
		timings := runner.Timings()
		counts := map[string]int{}
		for _, f := range findings {
			counts[f.Analyzer]++
		}
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %8.1fms %4d finding(s)  %s\n",
				a.Name, float64(timings[a.Name].Microseconds())/1000, counts[a.Name], a.Doc)
		}
	}

	if *fix {
		remaining, applied, err := applyFixes(findings)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stderr, "xstvet: applied %d fixes\n", applied)
		findings = remaining
	}

	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Position.Filename,
				Line:     f.Position.Line,
				Column:   f.Position.Column,
				Message:  f.Diagnostic.Message,
				Fixable:  len(f.Edits) > 0,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "xstvet: %d violations\n", len(findings))
		return 1
	}
	return 0
}

// applyFixes rewrites source files with each finding's resolved edits
// (skipping findings without fixes and overlapping edits), returning the
// unfixed findings and the number applied.
func applyFixes(findings []lint.Finding) ([]lint.Finding, int, error) {
	type edit struct {
		idx int // index into findings
		lint.ResolvedEdit
	}
	byFile := map[string][]edit{}
	for i, f := range findings {
		for _, re := range f.Edits {
			byFile[re.Filename] = append(byFile[re.Filename], edit{idx: i, ResolvedEdit: re})
		}
	}
	fixed := make([]bool, len(findings))
	for file, edits := range byFile {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, 0, err
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].Start > edits[j].Start })
		prevStart := len(src) + 1
		for _, e := range edits {
			if e.End > prevStart || e.Start < 0 || e.End > len(src) || e.Start > e.End {
				continue // overlapping or out-of-range edit: leave for a rerun
			}
			src = append(src[:e.Start], append([]byte(e.NewText), src[e.End:]...)...)
			prevStart = e.Start
			fixed[e.idx] = true
		}
		if err := os.WriteFile(file, src, 0o644); err != nil {
			return nil, 0, err
		}
	}
	var remaining []lint.Finding
	applied := 0
	for i, f := range findings {
		if fixed[i] {
			applied++
		} else {
			remaining = append(remaining, f)
		}
	}
	return remaining, applied, nil
}
