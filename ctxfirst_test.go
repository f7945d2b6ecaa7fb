package bohr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// ctxGated are the packages that perform I/O or long-running execution.
var ctxGated = []string{"internal/core", "internal/engine", "internal/serve"}

// ioVerbs are name prefixes that announce I/O or long-running execution.
var ioVerbs = []string{
	"Run", "Dial", "Put", "Stats", "Score", "Move", "Query",
	"Prepare", "Execute", "Send", "Fetch", "Call", "Acquire",
	"Serve", "Transfer", "Shuffle",
}

// TestExportedIOTakesContextFirst is the context-first gate: every
// exported function or method in the non-test sources under ctxGated
// whose name begins with an I/O verb at a word boundary ("RunQuery" and
// "Run" match "Run", "Runtime" does not) takes a context.Context as its
// first parameter.
func TestExportedIOTakesContextFirst(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range ctxGated {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Name.IsExported() && startsWithIOVerb(fn.Name.Name) && !contextFirst(fn.Type) {
					t.Errorf("%s: %s%s must take context.Context as its first parameter",
						fset.Position(fn.Pos()), receiver(fn), fn.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func startsWithIOVerb(name string) bool {
	for _, v := range ioVerbs {
		if rest, ok := strings.CutPrefix(name, v); ok && (rest == "" || rest[0] >= 'A' && rest[0] <= 'Z') {
			return true
		}
	}
	return false
}

// contextFirst reports whether the first parameter is context.Context,
// matched syntactically: the gated packages import it by its own name.
func contextFirst(ft *ast.FuncType) bool {
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

// receiver renders a method's receiver type as "(*T)." ("" for a
// function).
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	star := ""
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = "*", s.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return "(" + star + id.Name + ")."
	}
	return "(?)."
}
