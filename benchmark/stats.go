package main

import (
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between order statistics. It returns 0 for an empty
// sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// minTailSamples is how many samples must lie beyond a reported
// percentile for it to be more than a restatement of the maximum.
const minTailSamples = 10

// highestPercentile returns the highest whole percentile of an n-sample
// run that still has at least minTailSamples samples beyond it (80 for
// n = 50..99, 90 for n = 100..199), or 0 when n is too small for any.
func highestPercentile(n int) int {
	if n <= minTailSamples {
		return 0
	}
	return int(100 * float64(n-minTailSamples) / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
