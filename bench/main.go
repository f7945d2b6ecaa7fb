// Command bench is the repository's benchmark: four long-run workloads
// over the real layers, five end-to-end metrics on each, and a traced
// mode that times the layers from outside. See README.md in this
// directory and BENCHMARK.json at the repository root.
//
//	go run ./bench -workload fig6-batch            # end-to-end metrics
//	go run ./bench -workload query-miss -trace 1   # per-layer metrics
//	go run ./bench -all                            # every workload, both modes
//	go run ./bench -aa 5                           # A/A self-check across processes
//
// The last line of standard output of a single-workload run is one JSON
// object: correct, attempted, failed, metrics. The exit code is non-zero
// when any oracle failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"

	"bohr/internal/parallel"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: fig6-batch, query-miss, query-ingest-mix or ingest-durable")
		seed     = flag.Int64("seed", 42, "the only source of randomness: data, statement parameters, batch contents")
		seconds  = flag.Int("seconds", refSeconds, "run length the fixed op counts are scaled to (they are calibrated at 20 on the reference box)")
		trace    = flag.Int("trace", 0, "1 records spans from bench/ and prints the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to this file as JSON")
		all      = flag.Bool("all", false, "run every workload, untraced then traced")
		aa       = flag.Int("aa", 0, "A/A self-check: two interleaved sets of N runs per workload in child processes")
	)
	flag.Parse()
	if err := pinWidth(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1, -trace 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}
	var err error
	ok := true
	switch {
	case *aa > 0:
		ok, err = selfCheck(*aa, *seed, *seconds, *name)
	case *all:
		for _, w := range workloads() {
			for _, traced := range []bool{false, true} {
				var one bool
				one, err = runOne(w, *seed, *seconds, traced, "")
				ok = ok && one
				if err != nil {
					break
				}
			}
		}
	default:
		w, found := findWorkload(*name)
		if !found {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have", *name)
			for _, w := range workloads() {
				fmt.Fprintf(os.Stderr, " %s", w.name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
		ok, err = runOne(w, *seed, *seconds, *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// pinWidth fixes the kernel pool at one worker, so that the load
// goroutine's work is not spread over a second shared vCPU whose speed
// varies (width 2 measured ±7 % between identical repetitions, width 1
// ±2.5 %). GOMAXPROCS stays at the CPU count: the GC has the other core.
func pinWidth() error {
	if v := os.Getenv("BOHR_PARALLEL_WIDTH"); v != "" && v != "1" {
		return fmt.Errorf("BOHR_PARALLEL_WIDTH=%s: the benchmark only runs at pool width 1", v)
	}
	parallel.SetDefaultWidth(1)
	if w := parallel.DefaultWidth(); w != 1 {
		return fmt.Errorf("pool width is %d after pinning it to 1", w)
	}
	return nil
}

// runOne runs one workload in one mode, prints the environment, the
// metrics by name with units, and the JSON result line.
func runOne(w workloadSpec, seed int64, seconds int, traced bool, traceOut string) (bool, error) {
	fmt.Printf("bench: workload=%s seed=%d seconds=%d trace=%v rounds=%d ops_per_round=%d warm=%d nproc=%d gomaxprocs=%d go=%s pool_width=%d\n",
		w.name, seed, seconds, traced, rounds, scaled(w.ops, seconds, 2), w.warmOps(seconds, traced),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), parallel.DefaultWidth())
	var res result
	var err error
	if traced {
		res, err = runTraced(w, seed, seconds, traceOut)
	} else {
		res, err = runEndToEnd(w, seed, seconds, rounds)
	}
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-30s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}
