package main

import (
	"sort"
	"syscall"
	"time"
)

// minBeyondTail is how many samples must lie above the value reported
// as a run's tail, so the tail is never a single outlier.
const minBeyondTail = 10

// tail summarizes a sample set the way the benchmark reports timings:
// the median, and the highest percentile that still has minBeyondTail
// samples above it, with that percentile and the sample count.
type tail struct {
	P50   float64
	Tail  float64
	TailP float64 // percentile of Tail, e.g. 90 for p90
	N     int
}

// summarize sorts a copy of xs and picks its median and tail. With no
// more than minBeyondTail samples there is no such percentile; the tail
// is then the maximum, reported as p100.
func summarize(xs []float64) tail {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := tail{N: len(s)}
	if len(s) == 0 {
		return t
	}
	t.P50 = median(s)
	k := len(s) - 1 - minBeyondTail
	if k < 0 {
		k = len(s) - 1
	}
	t.Tail = s[k]
	t.TailP = 100 * float64(k+1) / float64(len(s))
	return t
}

// median of an already sorted slice; 0 for an empty one.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rusage reads the process's CPU time (user+sys) and peak resident set.
func rusage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}
