package bohr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// configType matches the names of the structs that configure the system.
var configType = regexp.MustCompile(`^(\w*Config|\w*Options|Stage|PlacementInput|Caps|Assigner|Setup)$`)

// fieldRef names one field of one struct type: the type's import path and
// name, and the field.
type fieldRef struct{ pkg, typ, field string }

// TestConfigFieldsHaveWriters holds the settable surface to what a
// deployment sets: every exported field of an exported configuration
// struct (a type named *Config, *Options, Stage, PlacementInput, Caps,
// Assigner or Setup) in non-test code has a write in non-test code outside
// a withDefaults method. A write is a composite-literal key of that type
// (or a positional literal of it), or an assignment, ++ or -- to a
// selector of the field's name. A knob only tests turn belongs in the
// package as an unexported hook, and one nobody turns is a constant.
// Packages that only tests import are neither checked nor counted as
// writers.
func TestConfigFieldsHaveWriters(t *testing.T) {
	type pkgFiles struct {
		path  string
		main  bool
		files []*ast.File
	}
	var pkgs []pkgFiles
	imported := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		nonTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
		parsed, err := parser.ParseDir(token.NewFileSet(), p, nonTest, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for name, pkg := range parsed {
			pf := pkgFiles{path: path.Join("bohr", filepath.ToSlash(p)), main: name == "main"}
			for _, f := range pkg.Files {
				pf.files = append(pf.files, f)
				for _, imp := range f.Imports {
					ip, _ := strconv.Unquote(imp.Path.Value)
					imported[ip] = true
				}
			}
			pkgs = append(pkgs, pf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fields := map[string][]string{} // "path.Type" → exported fields in order
	var checked []fieldRef
	written := map[fieldRef]bool{}
	assigned := map[string]bool{} // field names assigned through a selector
	for _, pf := range pkgs {
		if !pf.main && !imported[pf.path] {
			continue // only tests import it
		}
		for _, f := range pf.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !configType.MatchString(ts.Name.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fd := range st.Fields.List {
						for _, name := range fieldNames(fd) {
							key := pf.path + "." + ts.Name.Name
							fields[key] = append(fields[key], name)
							if ast.IsExported(name) {
								checked = append(checked, fieldRef{pf.path, ts.Name.Name, name})
							}
						}
					}
				}
			}
		}
	}
	for _, pf := range pkgs {
		if !pf.main && !imported[pf.path] {
			continue
		}
		for _, f := range pf.files {
			imports := fileImports(f)
			// litType resolves a composite literal's type expression.
			litType := func(e ast.Expr) (string, string, bool) {
				switch e := e.(type) {
				case *ast.Ident:
					return pf.path, e.Name, true
				case *ast.SelectorExpr:
					if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
						return imports[x.Name], e.Sel.Name, true
					}
				case *ast.StarExpr:
					if x, ok := e.X.(*ast.Ident); ok {
						return pf.path, x.Name, true
					}
					if s, ok := e.X.(*ast.SelectorExpr); ok {
						if x, ok := s.X.(*ast.Ident); ok && imports[x.Name] != "" {
							return imports[x.Name], s.Sel.Name, true
						}
					}
				}
				return "", "", false
			}
			elided := map[*ast.CompositeLit]ast.Expr{} // element literals that omit their type
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if s, ok := lhs.(*ast.SelectorExpr); ok {
								assigned[s.Sel.Name] = true
							}
						}
					case *ast.IncDecStmt:
						if s, ok := n.X.(*ast.SelectorExpr); ok {
							assigned[s.Sel.Name] = true
						}
					case *ast.CompositeLit:
						typ := n.Type
						if typ == nil {
							typ = elided[n]
						}
						var elt ast.Expr
						switch tt := typ.(type) {
						case *ast.ArrayType:
							elt = tt.Elt
						case *ast.MapType:
							elt = tt.Value
						}
						for _, e := range n.Elts {
							kv, isKV := e.(*ast.KeyValueExpr)
							if isKV {
								e = kv.Value
							}
							if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
								e = u.X
							}
							if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil && elt != nil {
								elided[inner] = elt
							}
						}
						p, name, ok := litType(typ)
						if !ok {
							return true
						}
						for i, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								if k, ok := kv.Key.(*ast.Ident); ok {
									written[fieldRef{p, name, k.Name}] = true
								}
							} else if fs := fields[p+"."+name]; i < len(fs) {
								written[fieldRef{p, name, fs[i]}] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	var missing []string
	for _, r := range checked {
		if !written[r] && !assigned[r.field] {
			missing = append(missing, path.Base(r.pkg)+"."+r.typ+"."+r.field)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no writer in non-test code outside withDefaults", m)
	}
	t.Logf("%d exported config fields checked", len(checked))
}

// fieldNames lists a struct field declaration's names; an embedded field
// is named after its type.
func fieldNames(fd *ast.Field) []string {
	if len(fd.Names) > 0 {
		names := make([]string, len(fd.Names))
		for i, n := range fd.Names {
			names[i] = n.Name
		}
		return names
	}
	typ := fd.Type
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	switch e := typ.(type) {
	case *ast.Ident:
		return []string{e.Name}
	case *ast.SelectorExpr:
		return []string{e.Sel.Name}
	}
	return nil
}

// fileImports maps each of a file's import names to its path.
func fileImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = p
	}
	return out
}
