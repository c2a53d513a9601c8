package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// tailPercentile is the reporting rule for latency tails: the highest
// percentile of the ladder 99.9, 99, 90, 50 that leaves at least ten
// samples beyond its nearest-rank position in a sample of n, or 0 when
// not even the median does. The ladder is in permille so the rank
// arithmetic stays exact.
func tailPercentile(n int) float64 {
	for _, pm := range []int{999, 990, 900, 500} {
		rank := (pm*n + 999) / 1000 // ceil(pm*n/1000)
		if n-rank >= 10 {
			return float64(pm) / 10
		}
	}
	return 0
}

// sample is one latency (or other) distribution, in milliseconds unless
// its name says otherwise.
type sample []float64

func (s *sample) addDur(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// pct returns the p-th percentile, or 0 for an empty sample (a layer the
// workload does not exercise reads as zero work).
func (s sample) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return percentile(append(sample(nil), s...), p)
}

func (s sample) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

func (s sample) max() float64 { return s.pct(100) }

// median returns the median of a handful of repeated measurements.
func median(xs []float64) float64 { return sample(xs).pct(50) }

// ratio is a/b, or 0 when b is 0 (no attempts: nothing to rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "1234 kB"
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// totalAlloc returns the cumulative heap bytes allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
