package bohr_test

import (
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
// repository defines, so a rename cannot leave a document pointing at
// nothing.
func TestDocNamesExist(t *testing.T) {
	defined := map[string]bool{}
	funcs := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
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
		}
	}
}
