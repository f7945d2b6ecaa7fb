package main

import (
	"os"
	"regexp"
	"testing"
)

func TestMain(m *testing.M) {
	if err := pinWidth(); err != nil {
		println(err.Error())
		os.Exit(2)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at a twentieth of its op counts, untraced
// and traced, and checks that each run is correct and prints exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	d, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(d.Workloads), len(workloads()))
	}
	for _, dw := range d.Workloads {
		w, ok := findWorkload(dw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", dw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, 42, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "end_to_end", res, d.EndToEnd)
			res, err = runTraced(w, 42, 1, "")
			if err != nil {
				t.Fatal(err)
			}
			check(t, "per_layer", res, d.PerLayer)
			if cov := res.Metrics["trace.coverage"].Value; cov < 0.9 {
				t.Errorf("spans cover %.3f of op wall time, want at least 0.9", cov)
			}
		})
	}
}

func check(t *testing.T, list string, res result, want []declaredMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s run: correct=%v attempted=%d failed=%d", list, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: run printed %d metrics, BENCHMARK.json lists %d", list, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q is not made of letters, digits, _ . -", list, m.Name)
		}
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %q is not printed", list, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %q printed in %q, declared in %q", list, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}
