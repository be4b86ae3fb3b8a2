package telemetry

import (
	"math"
	"sync/atomic"
)

// Histogram is a log-linear histogram of non-negative observations: each
// power of two from 2^minExp to 2^maxExp is split into 32 linear
// sub-buckets, so a bucket's midpoint is within 1/64 of every value in it
// at every magnitude, from a nanosecond (as seconds) to a pipeline depth of
// a billion. Buckets are upper-inclusive, (lo, hi]: a power of two lands in
// the bucket it closes, so exposition's le="2" counts an observation of 2.
// Values at or below 2^minExp, zero included, share one bucket read as 0;
// values above 2^maxExp share one read as the exact Max.
//
// The zero value is ready to use. Observe is lock-free and allocation-free:
// two atomic adds, a CAS loop for the sum and one for the maximum.
type Histogram struct {
	counts  [numBuckets]atomic.Uint64
	total   atomic.Uint64
	sum     Gauge
	maxBits atomic.Uint64
}

const (
	subBits    = 5
	subBuckets = 1 << subBits // linear sub-buckets per power of two
	minExp     = -30          // 2^-30 ≈ 0.93e-9
	maxExp     = 30           // 2^30 ≈ 1.07e9
	octaves    = maxExp - minExp
	numBuckets = octaves*subBuckets + 2 // plus the zero and the overflow bucket
)

var minValue, maxValue = math.Ldexp(1, minExp), math.Ldexp(1, maxExp)

// bucketOf maps a non-negative value to its bucket.
func bucketOf(v float64) int {
	switch {
	case v <= minValue:
		return 0
	case v > maxValue:
		return numBuckets - 1
	}
	// The exponent picks the octave and the top mantissa bits the
	// sub-bucket; stepping one ulp down first makes the buckets
	// upper-inclusive.
	b := math.Float64bits(v) - 1
	exp := int(b>>52) - 1023
	sub := int(b>>(52-subBits)) & (subBuckets - 1)
	return 1 + (exp-minExp)*subBuckets + sub
}

// bucketMid is the value bucket i reads as: its midpoint, 0 for the zero
// bucket and +Inf for the overflow bucket.
func bucketMid(i int) float64 {
	switch i {
	case 0:
		return 0
	case numBuckets - 1:
		return math.Inf(1)
	}
	i--
	return math.Ldexp(1+(float64(i%subBuckets)+0.5)/subBuckets, minExp+i/subBuckets)
}

// Observe records v. NaN, negative and infinite values are dropped: they
// are no duration or depth, and one of them would poison Sum.
func (h *Histogram) Observe(v float64) {
	if !(v >= 0 && v <= math.MaxFloat64) {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Max returns the largest observed value exactly, or 0 when empty.
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile returns the q-quantile (0 < q <= 1): the midpoint of the bucket
// holding the observation of rank ⌊q·Count⌋ (0-based), capped at Max. It is
// within 1/64 of that observation, or 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	// Observe adds to the bucket before the total, so the buckets hold at
	// least total observations and the walk ends inside the loop.
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			return min(bucketMid(i), h.Max())
		}
	}
	return h.Max()
}
