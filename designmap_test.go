package bohr_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// designMaxLines bounds DESIGN.md: it describes the system as it stands,
// and CHANGES.md keeps the history.
const designMaxLines = 700

// TestModuleMapMatchesTree holds DESIGN.md to the package tree: every
// directory holding Go files (dot-directories and testdata aside) has
// exactly one entry in its module map, every entry names such a
// directory, the file stays within designMaxLines lines and it names no
// PR.
func TestModuleMapMatchesTree(t *testing.T) {
	for _, p := range designProblems(".") {
		t.Error(p)
	}
}

// TestModuleMapCheckNamesEachProblem feeds designProblems a small tree
// with one defect at a time and requires a problem that names it.
func TestModuleMapCheckNamesEachProblem(t *testing.T) {
	const good = "# Design\n\n## 2. Module map\n\n| Directory | Package |\n|---|---|\n" +
		"| `.` | root tests |\n| `cmd/tool/` | a tool |\n\n## 3. Next\n"
	for _, tc := range []struct {
		name, design, want string
		dirs               []string
	}{
		{"clean", good, "", []string{"cmd/tool"}},
		{"unmapped package", good, "internal/extra has Go files but no module-map entry", []string{"cmd/tool", "internal/extra"}},
		{"entry without directory", good, "cmd/tool, which does not exist", nil},
		{"entry twice", strings.Replace(good, "| `.` |", "| `cmd/tool` | again |\n| `.` |", 1), "cmd/tool twice", []string{"cmd/tool"}},
		{"PR number", good + "Added in PR 99.\n", "DESIGN.md:11 names a PR", []string{"cmd/tool"}},
		{"701st line", good + strings.Repeat("\n", designMaxLines-9), "DESIGN.md has 701 lines", []string{"cmd/tool"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			write := func(name, text string) {
				path := filepath.Join(root, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			write("DESIGN.md", tc.design)
			write("root_test.go", "package root\n")
			write(".hidden/x.go", "package hidden\n")
			write("testdata/x.go", "package data\n")
			for _, d := range tc.dirs {
				write(filepath.Join(d, "x.go"), "package x\n")
			}
			problems := designProblems(root)
			if tc.want == "" {
				if len(problems) > 0 {
					t.Fatalf("a tree that matches its map reports %q", problems)
				}
				return
			}
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					return
				}
			}
			t.Fatalf("problems %q name none containing %q", problems, tc.want)
		})
	}
}

// designProblems lists every way DESIGN.md under root disagrees with the
// package tree under root, or outgrows its bounds. The module map is the
// table in the section whose heading says "Module map": each row opens
// with a backticked directory relative to root ("." for root itself).
func designProblems(root string) []string {
	text, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	if len(lines) > designMaxLines {
		problems = append(problems, fmt.Sprintf("DESIGN.md has %d lines, more than %d", len(lines), designMaxLines))
	}
	pr := regexp.MustCompile(`\bPRs? ?#?[0-9]`)
	entry := regexp.MustCompile("^\\| `([^`]+)` \\|")
	mapped := map[string]int{}
	inMap := false
	for i, line := range lines {
		if pr.MatchString(line) {
			problems = append(problems, fmt.Sprintf("DESIGN.md:%d names a PR: %q", i+1, line))
		}
		if strings.HasPrefix(line, "## ") {
			inMap = strings.Contains(line, "Module map")
			continue
		}
		if m := entry.FindStringSubmatch(line); inMap && m != nil {
			mapped[filepath.Clean(m[1])]++
		}
	}

	pkgs := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			pkgs[rel] = true
		}
		return nil
	})
	if err != nil {
		return append(problems, err.Error())
	}
	for _, dir := range sortedKeys(pkgs) {
		if mapped[dir] == 0 {
			problems = append(problems, fmt.Sprintf("%s has Go files but no module-map entry in DESIGN.md", dir))
		}
	}
	for _, dir := range sortedKeys(mapped) {
		switch {
		case mapped[dir] > 1:
			problems = append(problems, fmt.Sprintf("DESIGN.md's module map lists %s twice", dir))
		case !pkgs[dir]:
			if _, err := os.Stat(filepath.Join(root, dir)); err != nil {
				problems = append(problems, fmt.Sprintf("DESIGN.md's module map names %s, which does not exist", dir))
			} else {
				problems = append(problems, fmt.Sprintf("DESIGN.md's module map names %s, which holds no Go files", dir))
			}
		}
	}
	return problems
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
