package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOlapTablesGolden pins the bytes of the three reports the olap cube
// still feeds — Table 2 (cell counts), Table 6 (cube storage bytes and
// dimension cubes) and §8.5's cube-generation overhead — at QuickSetup,
// seed 42. The shape tests hold these reports to the paper's verdicts;
// this test holds them to the exact numbers, so a change to how a cube
// is built cannot move a report unnoticed. Regenerate with
// go test ./internal/experiments -run OlapTablesGolden -update
func TestOlapTablesGolden(t *testing.T) {
	s := QuickSetup()
	t2, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	t6, err := Table6(s)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := OverheadCubeGeneration(s)
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(FormatTable2(t2) + "\n" + FormatTable6(t6) + "\n" + FormatOverhead(ov))

	golden := filepath.Join("testdata", "olap_tables.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("olap-backed tables drifted from the golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
