package olap

import "testing"

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Fatal("empty schema should error")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Fatal("empty dim name should error")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Fatal("duplicate dim should error")
	}
	if _, err := NewSchema("a\x1fb"); err == nil {
		t.Fatal("separator in dim name should error")
	}
}

func TestSchemaOps(t *testing.T) {
	s := MustSchema("a", "b", "c")
	if s.NumDims() != 3 || s.Index("b") != 1 || s.Index("z") != -1 || !s.Has("c") || s.Has("z") {
		t.Fatalf("schema basics broken: %+v", s.Dims())
	}
	p, err := s.Project("c", "a")
	if err != nil || p.NumDims() != 2 || p.Dims()[0] != "c" || p.Dims()[1] != "a" {
		t.Fatalf("project: %v %v", p, err)
	}
	if _, err := s.Project("z"); err == nil {
		t.Fatal("project unknown should error")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema should panic on error")
		}
	}()
	MustSchema()
}

func TestQueryTypeForCanonical(t *testing.T) {
	a := QueryTypeFor([]string{"b", "a"})
	b := QueryTypeFor([]string{"a", "b"})
	if a != b {
		t.Fatalf("query type not canonical: %q vs %q", a, b)
	}
	if a != "a,b" {
		t.Fatalf("unexpected id %q", a)
	}
}
