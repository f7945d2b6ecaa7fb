// Command ctxcheck is the repo's context-first API gate. It walks the
// non-test sources of the packages that perform I/O or long-running
// execution (core, engine, serve) and rejects any exported
// function or method whose name announces such work — Run, Dial, Put,
// Query, Acquire, and friends — but whose first parameter is not a
// context.Context. The gate is what keeps the PR 6 redesign from
// regressing: every such entry point takes a context up front.
//
// Usage: go run ./cmd/ctxcheck [dir ...]   (defaults to the gated set)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// gated is the default directory set; every .go file in these trees
// (excluding *_test.go) is checked.
var gated = []string{
	"internal/core",
	"internal/engine",
	"internal/serve",
}

// ioVerbs are name prefixes that signal I/O or long-running execution.
// A match means the function must take a leading context.Context.
var ioVerbs = []string{
	"Run", "Dial", "Put", "Stats", "Score", "Move", "Query",
	"Prepare", "Execute", "Send", "Fetch", "Call", "Acquire",
	"Serve", "Transfer", "Shuffle",
}

// matchesVerb reports whether the name begins with a gated verb at a
// word boundary: "RunQuery" matches "Run", but "Runtime" does not.
func matchesVerb(name string) bool {
	for _, v := range ioVerbs {
		if !strings.HasPrefix(name, v) {
			continue
		}
		rest := name[len(v):]
		if rest == "" || rest[0] >= 'A' && rest[0] <= 'Z' {
			return true
		}
	}
	return false
}

// firstParamIsContext reports whether the function's first parameter is
// context.Context (matched syntactically; the gated packages import the
// standard library under its canonical name).
func firstParamIsContext(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	sel, ok := ft.Params.List[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

func checkFile(fset *token.FileSet, path string) ([]string, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || !fn.Name.IsExported() || !matchesVerb(fn.Name.Name) {
			continue
		}
		if firstParamIsContext(fn.Type) {
			continue
		}
		pos := fset.Position(fn.Pos())
		recv := ""
		if fn.Recv != nil && len(fn.Recv.List) > 0 {
			recv = "(" + types(fn.Recv.List[0].Type) + ")."
		}
		bad = append(bad, fmt.Sprintf("%s:%d: %s%s must take context.Context as its first parameter",
			pos.Filename, pos.Line, recv, fn.Name.Name))
	}
	return bad, nil
}

// types renders a receiver type expression compactly.
func types(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + types(t.X)
	case *ast.IndexExpr:
		return types(t.X)
	case *ast.IndexListExpr:
		return types(t.X)
	default:
		return "?"
	}
}

func main() {
	dirs := gated
	if len(os.Args) > 1 {
		dirs = os.Args[1:]
	}
	fset := token.NewFileSet()
	var violations []string
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			bad, err := checkFile(fset, path)
			if err != nil {
				return err
			}
			violations = append(violations, bad...)
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctxcheck: %v\n", err)
			os.Exit(2)
		}
	}
	if len(violations) > 0 {
		sort.Strings(violations)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		fmt.Fprintf(os.Stderr, "ctxcheck: %d exported I/O function(s) missing a leading context.Context\n", len(violations))
		os.Exit(1)
	}
	fmt.Printf("ctxcheck: ok (%d dirs clean)\n", len(dirs))
}
