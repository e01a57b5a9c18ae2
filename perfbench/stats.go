package main

import (
	"hash"
	"math"
	"sort"
	"time"

	"edm/internal/dist"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac returns num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// hashCounts writes a histogram into h in canonical order, so equal
// histograms hash equal.
func hashCounts(h hash.Hash64, c *dist.Counts) {
	var buf [16]byte
	for _, e := range c.Sorted() {
		v, k := e.Value.Uint64(), uint64(e.Count)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
			buf[8+i] = byte(k >> (8 * i))
		}
		h.Write(buf[:])
	}
}

// hitFrac is hits ÷ lookups, 0 when there were none.
func hitFrac(hits, misses uint64) float64 { return frac(float64(hits), float64(hits+misses)) }
