package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 from 200 samples rests on two values, which is
// noise, not a tail.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), without modifying xs. Zero for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// rate is count per second of elapsed; zero when nothing elapsed.
func rate(count float64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return count / elapsed.Seconds()
}

// perOp divides a phase total by its operation count; zero without ops.
func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

// ratio is num/den, zero when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Unit conversions. Durations are kept as time.Duration until they are
// reported, then converted once.
func toUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func toMB(bytes float64) float64   { return bytes / 1e6 }

// histQuantile returns the q-quantile (0 < q <= 1) of a histogram given as
// bucket boundaries (len(counts)+1 of them, bucket i spanning
// [bounds[i], bounds[i+1])). It reports the upper boundary of the bucket
// that holds the quantile, or its lower boundary when the upper one is
// infinite. Zero for an empty histogram.
func histQuantile(counts []uint64, bounds []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= need {
			if hi := bounds[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return bounds[i]
		}
	}
	return bounds[len(counts)-1]
}

// parseSNMP extracts one protocol's counters from the text of
// /proc/net/snmp, where each protocol has a header line of field names
// followed by a line of values, both prefixed with "<proto>:".
func parseSNMP(text, proto string) (map[string]uint64, error) {
	prefix := proto + ":"
	var names []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != prefix {
			continue
		}
		if names == nil {
			names = f[1:]
			continue
		}
		if len(f)-1 != len(names) {
			return nil, fmt.Errorf("snmp %s: %d values for %d fields", proto, len(f)-1, len(names))
		}
		out := make(map[string]uint64, len(names))
		for i, name := range names {
			v, err := strconv.ParseUint(f[i+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("snmp %s %s: %w", proto, name, err)
			}
			out[name] = v
		}
		return out, nil
	}
	return nil, fmt.Errorf("snmp: no %s counters", proto)
}
