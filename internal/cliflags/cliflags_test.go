package cliflags

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"bohr/internal/experiments"
)

// TestSetupFlags holds the setup flags to "a positive value overrides,
// zero keeps the setup's own", over the quick or the default setup.
func TestSetupFlags(t *testing.T) {
	f := SetupFlags{Quick: true}
	fs := FlagSet("t", io.Discard)
	f.Register(fs, "quick", "sites", "datasets", "rows", "runs", "k", "seed", "faults")
	if err := fs.Parse([]string{"-datasets", "2", "-k", "10", "-seed", "9", "-faults", "crash:site=1,start=0,end=5"}); err != nil {
		t.Fatal(err)
	}
	s, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.QuickSetup()
	if s.Sites != want.Sites || s.RowsPerSite != want.RowsPerSite || s.Runs != want.Runs ||
		s.Datasets != 2 || s.ProbeK != 10 || s.Seed != 9 || s.Faults == nil || len(s.Faults.Events) != 1 {
		t.Errorf("setup = %+v", s)
	}
	if s, _ := (SetupFlags{Sites: 3}).Setup(); s.Sites != 3 || s.Datasets != experiments.DefaultSetup().Datasets {
		t.Errorf("default setup with -sites 3 = %+v", s)
	}
	if _, err := (SetupFlags{Faults: "flood"}).Setup(); err == nil {
		t.Error("a bad fault schedule resolved")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering an unknown setup flag did not panic")
		}
	}()
	f.Register(flag.NewFlagSet("t", flag.ContinueOnError), "lag")
}

// TestLogger resolves each level and format, and rejects the rest.
func TestLogger(t *testing.T) {
	for _, c := range []struct {
		l     Logging
		debug bool
		want  string
	}{
		{Logging{"debug", "json"}, true, `"msg":"hello"`},
		{Logging{"info", "text"}, false, "msg=hello"},
		{Logging{"warning", ""}, false, "msg=hello"},
		{Logging{"error", "text"}, false, "msg=hello"},
	} {
		var b bytes.Buffer
		lg, err := c.l.Logger(&b)
		if err != nil {
			t.Fatal(err)
		}
		lg.Debug("hello")
		if got := b.Len() > 0; got != c.debug {
			t.Errorf("%+v: debug line %q", c.l, b.String())
		}
		b.Reset()
		lg.Error("hello")
		if !strings.Contains(b.String(), c.want) {
			t.Errorf("%+v: error line %q, want %q", c.l, b.String(), c.want)
		}
	}
	if lg, err := (Logging{Level: "off"}).Logger(io.Discard); lg != nil || err != nil {
		t.Errorf("off = %v, %v", lg, err)
	}
	for _, l := range []Logging{{"loud", "text"}, {"info", "xml"}} {
		if _, err := l.Logger(io.Discard); err == nil {
			t.Errorf("%+v resolved", l)
		}
	}
}
