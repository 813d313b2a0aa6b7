package main

import (
	"fmt"
	"math"
	"time"
)

// Latencies are kept in a histogram whose buckets are 0.1% wide on a log
// scale from 1 µs to 100 s, so a phase's memory stays flat however many
// operations complete: storing every sample made a faster program report
// a higher memory peak.
const (
	histGrowth  = 1.001
	histBuckets = 18431 // 1.001^18431 µs ≈ 100 s
)

var logGrowth = math.Log(histGrowth)

type hist struct {
	counts []uint32
	n      int64
	max    float64 // µs
}

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

// bucketOf is the bucket holding us: bucket i spans
// (1.001^i, 1.001^(i+1)] µs, and bucket 0 also holds everything below.
func bucketOf(us float64) int {
	if us <= histGrowth {
		return 0
	}
	i := int(math.Ceil(math.Log(us)/logGrowth)) - 1
	return min(i, histBuckets-1)
}

// bucketTop is the upper edge of bucket i in µs.
func bucketTop(i int) float64 { return math.Exp(float64(i+1) * logGrowth) }

func (h *hist) add(us float64) {
	h.counts[bucketOf(us)]++
	h.n++
	h.max = max(h.max, us)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) as
// the upper edge of the bucket holding that rank (capped at the largest
// value seen), and whether at least minBeyond operations rank above it.
// An empty histogram yields (0, false).
func (h *hist) percentile(p float64) (float64, bool) {
	if h.n == 0 {
		return 0, false
	}
	// The epsilon keeps p99.9 of 10000 at rank 9990: 99.9/100 is not exact
	// in binary and would round the product just above it.
	rank := int64(math.Ceil(p*float64(h.n)/100 - 1e-9))
	rank = min(max(rank, 1), h.n)
	var cum int64
	for i, c := range h.counts {
		if cum += int64(c); cum >= rank {
			return min(bucketTop(i), h.max), h.n-rank >= minBeyond
		}
	}
	return h.max, false // unreachable: the counts sum to n
}

// summary is a phase's end-to-end figures.
type summary struct {
	opsPerS, p50, tail, cpuUS, allocs float64
}

// summarize takes throughput, CPU time and allocations per operation over
// the whole phase, and the median and tail latency. A tailP of zero marks
// a phase of long operations (whole simulations), too few for any upper
// percentile to have ten beyond it; the slowest operation is its tail.
//
// Whole-phase totals, not the median of shorter windows: udp-bulk's
// syscall batching flips between a fast and a slow mode every few seconds,
// and a median over windows jumped between the modes from run to run
// where a total moves only with the share of time spent in each.
func summarize(h *hist, elapsed time.Duration, use usageDelta, tailP float64) (summary, error) {
	p50, _ := h.percentile(50)
	s := summary{
		opsPerS: rate(float64(h.n), elapsed),
		p50:     p50,
		tail:    h.max,
		cpuUS:   perOp(toUS(use.cpu), h.n),
		allocs:  perOp(float64(use.mallocs), h.n),
	}
	if tailP > 0 {
		var ok bool
		if s.tail, ok = h.percentile(tailP); !ok {
			return summary{}, fmt.Errorf("%d operations are too few for p%v", h.n, tailP)
		}
	}
	return s, nil
}
