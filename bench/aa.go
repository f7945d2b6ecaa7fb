package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"bohr/internal/stats"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back:
// the self-check takes each end-to-end metric's direction and bound from
// it, the smoke test checks names and units against it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(raw, &bf)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the acceptance check uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / stats.Median(v)
}

// child runs this binary once on one workload and returns its result.
func child(workload string, seed int64, seconds int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	return res, nil
}

// selfCheck is the A/A test: per workload, two interleaved sets of n runs
// of the same binary, every run a process of its own with its own seed.
// It passes when, for every end-to-end metric, each set's quartile spread
// is within the metric's bound (setup_s excepted) and the second set's
// median is not worse than the first's by more than the bound — the
// acceptance rule the benchmark is held to.
func selfCheck(n int, seed int64, seconds int, only string) (bool, error) {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	pass := true
	for _, w := range workloads() {
		if only != "" && only != w.name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				res, err := child(w.name, seed+int64(2*i+set), seconds)
				if err != nil {
					return false, err
				}
				if !res.Correct {
					return false, fmt.Errorf("%s: a run failed its oracles", w.name)
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("\n%s, 2 x %d runs of %d s\n", w.name, n, seconds)
		fmt.Printf("  %-16s %12s %12s %8s %8s %8s %8s %6s  %s\n",
			"metric", "median A", "median B", "B worse", "spreadA", "spreadB", "range", "bound", "")
		for _, e := range bf.EndToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			ma, mb := stats.Median(a), stats.Median(b)
			worse := (mb - ma) / ma
			if e.Better == "higher" {
				worse = -worse
			}
			both := append(append([]float64(nil), a...), b...)
			sort.Float64s(both)
			rng := (both[len(both)-1] - both[0]) / stats.Median(both)
			sa, sb := spread(a), spread(b)
			ok := worse <= e.Bound && (e.Name == "setup_s" || math.Max(sa, sb) <= e.Bound)
			verdict := "PASS"
			if !ok {
				verdict, pass = "FAIL", false
			}
			fmt.Printf("  %-16s %12.5g %12.5g %+8.3f %8.3f %8.3f %8.3f %6.2f  %s\n",
				e.Name, ma, mb, worse, sa, sb, rng, e.Bound, verdict)
		}
	}
	return pass, nil
}
