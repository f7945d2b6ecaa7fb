// Livewan: the whole pipeline over real TCP sockets — ten worker "sites"
// with token-bucket-shaped uplinks run in this process, a controller
// exchanges probes, directs similarity-aware movement out of the
// bottleneck, and executes a genuinely distributed map/combine/shuffle/
// reduce, comparing wall-clock shuffle volume with and without similarity.
//
//	go run ./examples/livewan
package main

import (
	"context"
	"fmt"
	"log"

	"bohr/internal/engine"
	"bohr/internal/netio"
	"bohr/internal/stats"
	"bohr/internal/wan"
)

const dataset = "weblogs"

var schema = []string{"url", "country"}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// startSites boots one shaped worker per EC2 region and loads skewed data:
// the slow regions hold more records, half drawn from a shared pool.
func startSites() (*netio.Controller, []*netio.Worker, error) {
	top := wan.EC2TenRegions(4) // 4 / 10 / 20 MB/s tiers
	var workers []*netio.Worker
	var addrs []string
	for i, site := range top.Sites {
		w, err := netio.NewWorker(i, "127.0.0.1:0", site.UpMBps, int64(i+1))
		if err != nil {
			return nil, nil, err
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	ctl, err := netio.Dial(context.Background(), addrs)
	if err != nil {
		return nil, workers, err
	}
	rng := stats.NewRand(7)
	for i, site := range top.Sites {
		n := 1500
		if site.UpMBps <= 4 { // slow tier: the bottleneck sites hold more
			n = 4000
		}
		recs := make([]engine.KV, n)
		for r := range recs {
			var url string
			if rng.Float64() < 0.5 {
				url = fmt.Sprintf("shared-u%03d", rng.Intn(150))
			} else {
				url = fmt.Sprintf("%s-u%03d", site.Name, rng.Intn(150))
			}
			recs[r] = engine.KV{
				Key: url + engine.KeySep + []string{"US", "JP", "DE"}[rng.Intn(3)],
				Val: rng.Float64() * 10,
			}
		}
		if err := ctl.Put(context.Background(), i, dataset, schema, recs); err != nil {
			return nil, workers, err
		}
	}
	return ctl, workers, nil
}

func run() error {
	fmt.Println("Live WAN demo: ten shaped TCP sites on localhost")

	runOnce := func(similar bool, queryID string) (shuffled int, err error) {
		ctl, workers, err := startSites()
		defer func() {
			if ctl != nil {
				ctl.Close()
			}
			for _, w := range workers {
				_ = w.Close()
			}
		}()
		if err != nil {
			return 0, err
		}

		// Probe exchange: the bottleneck (Seoul, site 6 in the EC2 layout)
		// sends its top cells; the controller scores them everywhere and
		// moves records toward the most similar fast site.
		const bottleneck = 6
		probeStats, err := ctl.Stats(context.Background(), bottleneck, dataset, []string{"url"}, 30)
		if err != nil {
			return 0, err
		}
		bestSite, bestScore := -1, -1.0
		for site := 0; site < ctl.N(); site++ {
			if site == bottleneck || site > 2 { // fast tier is sites 0-2
				continue
			}
			score, err := ctl.Score(context.Background(), site, dataset, []string{"url"}, probeStats.Top)
			if err != nil {
				return 0, err
			}
			fmt.Printf("  probe score %s → site %d: %.2f\n", map[bool]string{true: "similar", false: "random "}[similar], site, score)
			if score > bestScore {
				bestSite, bestScore = site, score
			}
		}
		dstStats, err := ctl.Stats(context.Background(), bestSite, dataset, nil, 500)
		if err != nil {
			return 0, err
		}
		moved, err := ctl.Move(context.Background(), bottleneck, bestSite, dataset, 2000, similar, dstStats.Top)
		if err != nil {
			return 0, err
		}
		fmt.Printf("  moved %d records from the bottleneck to site %d (similarity-aware: %v)\n",
			moved, bestSite, similar)

		res, err := ctl.RunQuery(context.Background(), netio.QueryDTO{
			ID: queryID, Dataset: dataset, Dims: []string{"url"}, Combine: engine.OpSum,
		}, nil)
		if err != nil {
			return 0, err
		}
		fmt.Printf("  query done in %v, %d records crossed the WAN, %d result rows\n\n",
			res.Elapsed.Round(1_000_000), res.ShuffledRecords, len(res.Output))
		return res.ShuffledRecords, nil
	}

	fmt.Println("\nSimilarity-agnostic movement (Iridium-style):")
	random, err := runOnce(false, "q-random")
	if err != nil {
		return err
	}
	fmt.Println("Similarity-aware movement (Bohr):")
	similar, err := runOnce(true, "q-similar")
	if err != nil {
		return err
	}

	fmt.Printf("Cross-WAN shuffle: %d records (random) vs %d (similar)", random, similar)
	if similar < random {
		fmt.Printf(" — %.0f%% less intermediate data over real sockets.\n",
			100*(1-float64(similar)/float64(random)))
	} else {
		fmt.Println()
	}
	return nil
}
