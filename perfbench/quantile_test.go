package main

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortedQuantile is the reference: sort a copy, take the nearest rank.
func sortedQuantile(xs []uint32, q float64) uint32 {
	s := append([]uint32(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), q)]
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, n := range []int{1, 2, 10, 101, 1000, 100000} {
		for _, spread := range []int{3, 1 << 20} { // heavy duplicates, then mostly distinct
			xs := make([]uint32, n)
			for i := range xs {
				xs[i] = uint32(rng.Intn(spread))
			}
			for _, q := range qs {
				want := sortedQuantile(xs, q)
				got := quantile(append([]uint32(nil), xs...), q)
				if got != want {
					t.Errorf("n=%d spread=%d q=%v: got %d, want %d", n, spread, q, got, want)
				}
			}
		}
	}
}

func TestQuantileSortedAndReversedInputs(t *testing.T) {
	const n = 100000
	asc := make([]uint32, n)
	for i := range asc {
		asc[i] = uint32(i)
	}
	desc := make([]uint32, n)
	for i := range desc {
		desc[i] = uint32(n - 1 - i)
	}
	for _, xs := range [][]uint32{asc, desc} {
		if got := quantile(append([]uint32(nil), xs...), 0.99); got != 98999 {
			t.Errorf("p99 of 0..%d = %d, want 98999", n-1, got)
		}
		if got := quantile(append([]uint32(nil), xs...), 0.5); got != 49999 {
			t.Errorf("p50 of 0..%d = %d, want 49999", n-1, got)
		}
	}
}

func TestRankNearest(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{1, 0.5, 0}, {1, 0.99, 0}, {10, 0.5, 4}, {10, 0.99, 9}, {100, 0.99, 98}, {100000, 0.99, 98999}, {10, 0, 0},
	} {
		if got := rank(c.n, c.q); got != c.want {
			t.Errorf("rank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestEndToEndCountsEveryStall(t *testing.T) {
	// Five 1-s windows; the partial first and last are dropped. Window 3
	// stalls: no op completes in it. Throughput is the ops of the whole
	// windows over their three seconds, and the stall shows in it.
	l := newOpLog(5)
	for w := 0; w < 5; w++ {
		if w == 3 {
			continue
		}
		for i := 0; i < 100; i++ {
			// All 20 slow ops land in window 2: pooled, they are the top
			// 5% of the 400 samples, so the p99 is one of them.
			lat := 10 * time.Microsecond
			if w == 2 && i < 20 {
				lat = 5 * time.Millisecond
			}
			l.done(opRead, time.Duration(w)*window+time.Millisecond, lat)
		}
	}
	r := &result{setup: []float64{1}, timed: []*opLog{l}}
	lat, counts := r.latencies()
	got := r.endToEnd(lat)
	if want := 200.0 / 3; got["ops_per_s"].Value != want {
		t.Errorf("ops_per_s = %v, want %v", got["ops_per_s"].Value, want)
	}
	if counts["read"] != 400 || lat["read_p99_us"].Value != 5000 || lat["read_p50_us"].Value != 10 {
		t.Errorf("read p50 %v p99 %v over %d samples, want 10, 5000 over 400",
			lat["read_p50_us"].Value, lat["read_p99_us"].Value, counts["read"])
	}
}
