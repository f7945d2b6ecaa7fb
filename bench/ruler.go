package main

import (
	"bytes"
	"math"
	"syscall"
	"time"

	"bohr/internal/stats"
)

// The reference box does not run at one speed. Its two vCPUs share a
// cache and memory system with neighbours: over minutes an L1-resident
// loop holds its rate within 2 %, while anything that misses cache drifts
// by 30 % and more, and the workloads drift with it. In one 7-minute
// sample the 25-second medians of query-miss op time ranged over 44 %
// with quartiles 15 % apart; in two sets of ten 25-second runs of every
// workload, run-to-run quartiles of throughput, p50 and p90 lay 11-15 %
// apart on a calm hour and 22-29 % on a busy one. No statistic taken
// inside a run removes that, because the drift is slower than a run
// (medians or lower quartiles over six rounds left 15-25 %).
//
// What removes most of it is a ruler read at the same moments. After
// every op the benchmark scans 2 MB of memory no cache holds for a byte
// that is not there, then scans the same 2 MB again from cache, and scales
// the op's timing by how fast the two scans around it ran compared with
// their usual speed: the geometric mean of the two. On the calm hour's
// runs that left quartiles 3-5 % apart on the three serving workloads and
// 7 % on fig6-batch. The exponents (one half each) came out of a grid
// search over four candidate kernels and held in the top three of every
// half of a split of those runs; a store kernel and a compiled load loop
// did as well on some hours but ran 1.6x slower in one build than in the
// next, because their speed depends on where the loop lands in the binary.
// bytes.IndexByte is hand-written assembly and does not move. The scans do
// not allocate, so the ruler neither feeds nor waits for the collector.
//
// rulerColdNS and rulerWarmNS are the scans' median times on the reference
// box, so that a scaled timing reads like the raw one on an ordinary
// moment there; on another box they only set the unit.
const (
	rulerColdNS = 0.287e6
	rulerWarmNS = 0.134e6

	rulerBytes = 32 << 20 // beyond any cache on the box
	rulerChunk = 2 << 20  // scanned per tick
)

// ruler owns the memory the reference scans read.
type ruler struct {
	mem []byte
	pos int
}

func newRuler() *ruler {
	// The memory lives outside the Go heap, so that it does not raise the
	// collector's heap target and with it the workloads' GC cadence.
	mem, err := syscall.Mmap(-1, 0, rulerBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		mem = make([]byte, rulerBytes)
	}
	for i := range mem {
		mem[i] = byte(i % 251) // never 0xFE or 0xFF, which the scans look for
	}
	return &ruler{mem: mem}
}

// tick is one reading of the ruler: when it was taken (milliseconds into
// the round) and how long each scan took.
type tick struct {
	atMS   float64
	coldNS float64
	warmNS float64
}

// tick scans the next chunk twice; since is the start of the round.
func (r *ruler) tick(since time.Time) tick {
	if r.pos+rulerChunk > len(r.mem) {
		r.pos = 0
	}
	chunk := r.mem[r.pos : r.pos+rulerChunk]
	r.pos += rulerChunk
	t0 := time.Now()
	cold := bytes.IndexByte(chunk, 0xFF)
	t1 := time.Now()
	warm := bytes.IndexByte(chunk, 0xFE)
	t2 := time.Now()
	if cold >= 0 || warm >= 0 {
		panic("bench: ruler memory holds a byte it was never given")
	}
	return tick{
		atMS:   float64(t1.Sub(since).Nanoseconds()) / 1e6,
		coldNS: float64(t1.Sub(t0).Nanoseconds()),
		warmNS: float64(t2.Sub(t1).Nanoseconds()),
	}
}

// read takes n readings in a row.
func (r *ruler) read(n int, since time.Time) []tick {
	out := make([]tick, n)
	for i := range out {
		out[i] = r.tick(since)
	}
	return out
}

// tickShare is the share of an op's duration spent reading the ruler
// after it (at least one tick): long ops get several readings, so that a
// second of Figure 6 is measured as densely as a second of queries.
const tickShare = 0.03

// speedWindowMS is how far before an op's start and after its end the
// ruler readings that scale it are taken from.
const speedWindowMS = 1000

// speed is the box's speed over the given ticks relative to usual: the
// geometric mean of the two scans' speeds, each from the median tick (a
// preemption lands on single ticks).
func speed(ticks []tick) float64 {
	if len(ticks) == 0 {
		return 1
	}
	cold := make([]float64, len(ticks))
	warm := make([]float64, len(ticks))
	for i, t := range ticks {
		cold[i], warm[i] = t.coldNS, t.warmNS
	}
	return math.Sqrt(rulerColdNS / stats.Median(cold) * rulerWarmNS / stats.Median(warm))
}

// speedAround is speed over the ticks taken within speedWindowMS of the
// interval [fromMS, toMS] of a round; ticks is in time order.
func speedAround(ticks []tick, fromMS, toMS float64) float64 {
	lo := 0
	for lo < len(ticks) && ticks[lo].atMS < fromMS-speedWindowMS {
		lo++
	}
	hi := lo
	for hi < len(ticks) && ticks[hi].atMS <= toMS+speedWindowMS {
		hi++
	}
	return speed(ticks[lo:hi])
}
