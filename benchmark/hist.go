package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is an allocation-free log-bucket histogram of nanosecond durations.
// A value's bucket is its binary exponent plus its top subBits mantissa
// bits, so a bucket is at most 2^-subBits (0.8 %) of its lower edge wide
// and a reported percentile, which is interpolated inside its bucket, is
// off by less than that.  Values at or above 2^maxExp ns (≈18 min) land in
// the last bucket.  Counts are uint32: a histogram holds one run's samples,
// tens of millions at the most.
type hist struct {
	counts [numBuckets]uint32
	n      uint64
	sum    uint64
}

const (
	subBits    = 7
	subCount   = 1 << subBits
	maxExp     = 40
	numBuckets = (maxExp - subBits + 1) * subCount
)

// bucketOf maps a value to its bucket.  Values below 2^subBits map one to
// one; above, each octave splits into subCount buckets.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v in [2^e, 2^(e+1))
	if e >= maxExp {
		return numBuckets - 1
	}
	return (e-subBits+1)*subCount + int(v>>(e-subBits))&(subCount-1)
}

// bucketBounds returns the half-open value range [lo, hi) of a bucket.
func bucketBounds(b int) (lo, hi uint64) {
	if b < subCount {
		return uint64(b), uint64(b) + 1
	}
	e := b/subCount + subBits - 1
	lo = uint64(subCount+b%subCount) << (e - subBits)
	return lo, lo + 1<<(e-subBits)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile in nanoseconds.  ok is false when fewer
// than ten samples lie beyond it (or, for the median, when there are fewer
// than ten samples at all): such a percentile is one or two outliers, not
// a property of the run, and callers report it as unsupported.
func (h *hist) quantile(q float64) (ns float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	beyond := float64(h.n) * (1 - q)
	ok = beyond >= 10 && h.n >= 10
	rank := q * float64(h.n) // samples strictly below the quantile
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(b)
			frac := (rank - seen) / float64(c)
			return float64(lo) + frac*float64(hi-lo), ok
		}
		seen += float64(c)
	}
	lo, _ := bucketBounds(numBuckets - 1)
	return float64(lo), ok
}

// us converts a nanosecond quantity to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return xs
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the acceptance check of BENCHMARK.json uses.  It needs two
// values.
func quartiles(xs []float64) (q1, q3 float64) {
	xs = sorted(xs)
	n := len(xs)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return xs[j-1] + d*(xs[j]-xs[j-1])
	}
	return at(1), at(3)
}
