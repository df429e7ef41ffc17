package main

import "sort"

// quantile returns the q-quantile of xs by the nearest-rank rule: the
// smallest sample with at least q·n samples at or below it. It selects in
// place (xs is reordered, not sorted), so a p99 over a million samples costs
// O(n), and every value it returns is a sample that was actually measured —
// no bucket edges, no interpolation. xs must not be empty.
func quantile(xs []uint32, q float64) uint32 {
	k := rank(len(xs), q)
	lo, hi := 0, len(xs)-1
	for lo < hi {
		p := partition(xs, lo, hi)
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// rank is the zero-based index of the nearest-rank q-quantile of n samples.
func rank(n int, q float64) int {
	k := int(q*float64(n)+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// partition is a Hoare-style three-way-safe Lomuto partition around the
// median of xs[lo], xs[mid], xs[hi]; it returns the pivot's final index.
// Equal keys are split between both sides, so runs of identical latencies
// (common at microsecond resolution) stay linear.
func partition(xs []uint32, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	xs[mid], xs[hi] = xs[hi], xs[mid]
	pivot := xs[hi]
	i, j := lo, hi-1
	for {
		for i <= j && xs[i] < pivot {
			i++
		}
		for i <= j && xs[j] > pivot {
			j--
		}
		if i >= j {
			break
		}
		xs[i], xs[j] = xs[j], xs[i]
		i++
		j--
	}
	xs[i], xs[hi] = xs[hi], xs[i]
	return i
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count). vs is sorted in place; it must not be empty.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
