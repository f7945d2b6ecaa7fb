package bohr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocNamesExist holds the documents to the code: every test, benchmark
// or fuzz target DESIGN.md, EXPERIMENTS.md, README.md and the skill notes
// name in backticks (or in a fenced block) is one a _test.go file of the
// repository defines, and every qualified Go name they write there —
// `pkg.Name`, where pkg is a package directory under internal/ — is a
// top-level func, type, var or const, or a method, of that package. So a
// rename or a deletion cannot leave a document pointing at nothing. Only
// names with an upper-case letter are checked: metric names such as
// `core.ingest.rows` share the spelling and are all lower case.
func TestDocNamesExist(t *testing.T) {
	defined := map[string]bool{}
	funcs := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	pkgs := map[string]map[string]bool{} // package directory name → declared names
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() && strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			return declaredNames(path, pkgs)
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcs.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	code := regexp.MustCompile("(?s)```.*?```|`[^`]*`")
	names := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	qualified := regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.(\w*[A-Z]\w*)`)
	skills, err := filepath.Glob(".*/skills/*/SKILL.md") // the build-and-verify notes
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}, skills...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range code.FindAllString(string(text), -1) {
			for _, name := range names.FindAllString(span, -1) {
				if !defined[name] {
					t.Errorf("%s names %s, which no _test.go defines", doc, name)
				}
			}
			for _, m := range qualified.FindAllStringSubmatch(span, -1) {
				if decl, ok := pkgs[m[1]]; ok && !decl[m[2]] {
					t.Errorf("%s names %s.%s, which package %s does not declare", doc, m[1], m[2], m[1])
				}
			}
		}
	}
}

// declaredNames adds the top-level funcs, types, vars, consts and methods
// of the package in dir — tests and benchmarks included — under the
// directory's name.
func declaredNames(dir string, pkgs map[string]map[string]bool) error {
	parsed, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, pkg := range parsed {
		decl := pkgs[filepath.Base(dir)]
		if decl == nil {
			decl = map[string]bool{}
			pkgs[filepath.Base(dir)] = decl
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decl[d.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							decl[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decl[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return nil
}
