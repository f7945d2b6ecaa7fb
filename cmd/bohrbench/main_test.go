package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// wallClock matches what bohrbench prints of wall time: each exhibit's
// "(name in Ns)" footer and Table 5's wall column.
var wallClock = regexp.MustCompile(`\((\w+) in [0-9.]+s\)|wall [0-9.]+s`)

// TestQuickAllGolden pins the stdout of `bohrbench -quick -exp all`, wall
// times masked, to testdata/quick-all.golden (go test -update rewrites
// it), and checks the -json document the same run writes.
func TestQuickAllGolden(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "all.json")
	var out, errOut bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-exp", "all", "-json", doc}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	text, ok := strings.CutSuffix(out.String(), "wrote "+doc+"\n")
	if !ok {
		t.Fatalf("stdout does not end by naming the -json file:\n%s", out.String())
	}
	got := wallClock.ReplaceAllStringFunc(text, func(m string) string {
		if name := wallClock.FindStringSubmatch(m)[1]; name != "" {
			return "(" + name + " in …s)"
		}
		return "wall …s"
	})
	path := filepath.Join("testdata", "quick-all.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(path); err != nil {
		t.Fatalf("%v (regenerate with go test -update)", err)
	} else if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		t.Errorf("-quick -exp all differs from %s at line %d\n got: %q\nwant: %q", path, i+1, gl[min(i, len(gl)-1)], wl[min(i, len(wl)-1)])
	}

	var rep struct {
		Experiment string `json:"experiment"`
		Children   []struct {
			Experiment string `json:"experiment"`
		} `json:"children"`
	}
	b, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "bohrbench" || len(rep.Children) == 0 || rep.Children[0].Experiment != "fig6" {
		t.Errorf("-json document: experiment %q, %d children", rep.Experiment, len(rep.Children))
	}
}

// TestFlagsAndErrors pins the flags bohrbench registers (each one it
// reads) and its rejected invocations.
func TestFlagsAndErrors(t *testing.T) {
	var errOut bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &bytes.Buffer{}, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(errOut.String(), -1) {
		got = append(got, m[1])
	}
	if want := []string{"datasets", "exp", "json", "k", "quick", "rows", "runs", "seed", "sites", "width"}; !slices.Equal(got, want) {
		t.Errorf("flags = %v, want %v", got, want)
	}

	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig99"}, `no experiment matched "fig99"`},
		{[]string{"-quick", "-runs", "1", "-exp", "tab3", "-json", filepath.Join(t.TempDir(), "no", "such", "dir.json")}, "writing"},
	} {
		if err := run(context.Background(), c.args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("bohrbench %v: err = %v, want one naming %q", c.args, err, c.want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-quick"}, &bytes.Buffer{}, &bytes.Buffer{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: err = %v, want context.Canceled", err)
	}
}
