package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// exactQuantile is the reference: sort and index.
func exactQuantile(xs []int64, q float64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func checkAgainstSort(t *testing.T, name string, xs []int64) {
	t.Helper()
	var h hist
	var sum int64
	for _, x := range xs {
		h.record(x)
		sum += x
	}
	if h.n != uint64(len(xs)) || h.sum != uint64(sum) {
		t.Fatalf("%s: n=%d sum=%d, want %d and %d", name, h.n, h.sum, len(xs), sum)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, ok := h.quantile(q)
		if !ok {
			t.Fatalf("%s: p%v refused with %d samples", name, q, len(xs))
		}
		want := exactQuantile(xs, q)
		if rel := math.Abs(got-want) / want; rel > 0.02 {
			t.Errorf("%s: p%v = %.1f, exact %.1f, off by %.2f%% (limit 2%%)", name, q, got, want, 100*rel)
		}
	}
}

func TestHistMatchesSorting(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 200_000

	// Log-uniform over 100 ns … 100 ms: every octave the benchmark sees.
	random := make([]int64, n)
	for i := range random {
		random[i] = int64(100 * math.Pow(10, 6*rng.Float64()))
	}
	checkAgainstSort(t, "random", random)

	// Bimodal: 98% fast path near 4 µs, 2% lock waits near 140 µs — the
	// shape of mem-hot, where p99 sits inside the second mode.
	bimodal := make([]int64, n)
	for i := range bimodal {
		if rng.IntN(100) < 98 {
			bimodal[i] = 3500 + rng.Int64N(1000)
		} else {
			bimodal[i] = 120_000 + rng.Int64N(40_000)
		}
	}
	checkAgainstSort(t, "bimodal", bimodal)
}

func TestHistBucketsRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<39 + 12345, 1<<40 - 1} {
		b := bucketOf(v)
		lo, hi := bucketBounds(b)
		if v < lo || v >= hi {
			t.Errorf("value %d in bucket %d = [%d, %d)", v, b, lo, hi)
		}
		if lo >= subCount && float64(hi-lo)/float64(lo) > 1.0/subCount {
			t.Errorf("bucket %d = [%d, %d) wider than 1/%d of its lower edge", b, lo, hi, subCount)
		}
	}
	if b := bucketOf(1 << 50); b != numBuckets-1 {
		t.Errorf("overflow value in bucket %d, want the last, %d", b, numBuckets-1)
	}
}

func TestHistRefusesUnsupportedPercentile(t *testing.T) {
	var h hist
	for i := 0; i < 999; i++ {
		h.record(int64(1000 + i))
	}
	if _, ok := h.quantile(0.5); !ok {
		t.Error("median of 999 samples refused")
	}
	if _, ok := h.quantile(0.99); ok {
		t.Error("p99 of 999 samples accepted with fewer than ten samples beyond it")
	}
	h.record(5000)
	if _, ok := h.quantile(0.99); !ok {
		t.Error("p99 of 1000 samples refused")
	}
	if _, ok := h.quantile(0.999); ok {
		t.Error("p999 of 1000 samples accepted")
	}
}

func TestHistMergeAndRecordDoNotAllocate(t *testing.T) {
	var a, b hist
	for i := int64(1); i <= 1000; i++ {
		a.record(i * 10)
		b.record(i * 1000)
	}
	var sum hist
	sum.merge(&a)
	sum.merge(&b)
	if sum.n != 2000 || sum.sum != a.sum+b.sum {
		t.Fatalf("merged n=%d sum=%d", sum.n, sum.sum)
	}
	if got, _ := sum.quantile(0.5); math.Abs(got-10_000)/10_000 > 0.02 {
		t.Errorf("merged median %.0f, want about 10000", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.record(12345); sum.merge(&b) }); allocs != 0 {
		t.Errorf("record+merge allocate %.0f times per call", allocs)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}
	q1, q3 := quartiles(xs)
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python's exclusive method gives 3.5, 31.0", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q3 = quartiles([]float64{20, 10})
	if q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v, %v; want 7.5, 22.5", q1, q3)
	}
}
