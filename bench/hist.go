package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear histogram over non-negative nanosecond values: values
// below 2^histSubBits land in exact unit buckets, and every power of two
// above that is split into 2^histSubBits linear sub-buckets, so a quantile is
// off by at most 1/2^histSubBits (1.6%) at any magnitude. It is owned by one
// goroutine while recording and merged afterwards, so recording is a plain
// increment.
type hist struct {
	counts []uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	shift := 63 - bits.LeadingZeros64(uint64(v)) - histSubBits
	return (shift+1)*histSub + int((v>>shift)&(histSub-1))
}

// histBounds returns bucket idx's half-open value range.
func histBounds(idx int) (lo, hi int64) {
	if idx < histSub {
		return int64(idx), int64(idx) + 1
	}
	shift := idx/histSub - 1
	lo = (int64(histSub) + int64(idx%histSub)) << shift
	return lo, lo + int64(1)<<shift
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the value at rank floor(q·n) of the sorted samples,
// interpolated inside its bucket by the rank's position among the bucket's
// samples, so the result is not confined to bucket edges; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c > rank {
			lo, hi := histBounds(i)
			hi = min(hi, h.max+1)
			return float64(lo) + (float64(rank-seen)+0.5)/float64(c)*float64(hi-lo)
		}
		seen += c
	}
	return float64(h.max)
}

// median returns the middle of vs (mean of the two middle values when the
// count is even); 0 when empty. vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// sliceQuantile is the benchmark's percentile rule: the quantile of each
// time slice of a phase, then the median across slices, so one disturbed
// slice (a GC cycle, a scheduler hiccup) cannot move the reported value.
// Empty slices are skipped.
func sliceQuantile(slices []*hist, q float64) float64 {
	vs := make([]float64, 0, len(slices))
	for _, h := range slices {
		if h.n > 0 {
			vs = append(vs, h.quantile(q))
		}
	}
	return median(vs)
}
