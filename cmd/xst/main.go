// Command xst is a read-eval-print loop for the extended set theory
// expression language (see internal/xlang): set literals with scoped
// members, tuple sugar, the boolean operations, image brackets and the
// full XST builtin library.
//
// Usage:
//
//	xst                  # interactive REPL
//	xst -e '{1,2}+{3}'   # evaluate one expression and exit
//	xst script.xst       # evaluate a file, one statement per line
//
// REPL commands: .help (builtins), .vars (bindings), .tables (alias for
// `from __sys.tables`), .quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"xst/internal/catalog"
	"xst/internal/store"
	"xst/internal/xlang"
)

func main() {
	// Exit status flows out of run so deferred cleanup (closing the
	// database) runs on every path; os.Exit here would skip it.
	os.Exit(run())
}

func run() int {
	expr := flag.String("e", "", "evaluate one expression and exit")
	dbPath := flag.String("db", "", "open a database file and bind its tables as variables")
	flag.Parse()

	env := xlang.NewEnv()
	var db *catalog.Database
	if *dbPath != "" {
		pager, err := store.OpenFilePager(*dbPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xst:", err)
			return 1
		}
		db, err = catalog.Open(pager, 256)
		if err != nil {
			pager.Close()
			fmt.Fprintln(os.Stderr, "xst:", err)
			return 1
		}
		if err := db.BindAll(env); err != nil {
			db.Close()
			fmt.Fprintln(os.Stderr, "xst:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bound tables: %v\n", db.Names())
	}
	status := 0
	switch {
	case *expr != "":
		if err := evalLine(env, *expr, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "xst:", err)
			status = 1
		}
	case flag.NArg() > 0:
		if err := runScript(env, flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "xst:", err)
			status = 1
		}
	default:
		repl(env)
	}
	if db != nil {
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "xst: closing database:", err)
			status = 1
		}
	}
	return status
}

func evalLine(env *xlang.Env, line string, out *os.File) error {
	v, err := xlang.Eval(env, line)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, v)
	return nil
}

func runScript(env *xlang.Env, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := evalLine(env, line, os.Stdout); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

func repl(env *xlang.Env) {
	fmt.Println("xst — extended set theory calculator (.help for builtins, .quit to exit)")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("xst> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == ".tables" {
			line = "from __sys.tables" // the catalog's own view, bound by BindAll
		}
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			for _, b := range xlang.Builtins() {
				fmt.Println(" ", b)
			}
			fmt.Println("  operators: + union, & intersect, ~ diff, = equal, <= subset")
			fmt.Println("  images:    R[A]  or  R[A; sigma1, sigma2]")
			fmt.Println("  binding:   name := expr")
		case line == ".vars":
			names := env.Names()
			sort.Strings(names)
			for _, n := range names {
				v, _ := env.Lookup(n)
				fmt.Printf("  %s = %v\n", n, v)
			}
		default:
			if err := evalLine(env, line, os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}
