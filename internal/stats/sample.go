package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds empirical statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (n−1 denominator).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p∈[0,1] percentile of xs with linear
// interpolation between order statistics. It copies and sorts
// internally; use PercentileSorted in loops.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// PercentileSorted returns the p∈[0,1] percentile of an already-sorted
// sample with linear interpolation.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summarize computes a Summary of the sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Mean:   Mean(s),
		StdDev: StdDev(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		P50:    PercentileSorted(s, 0.50),
		P95:    PercentileSorted(s, 0.95),
		P99:    PercentileSorted(s, 0.99),
	}
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length samples (0 if either is constant).
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Correlation dim %d vs %d", len(xs), len(ys)))
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if EqZero(sxx) || EqZero(syy) {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Histogram is a fixed-range, fixed-bin-count histogram used to render
// the distribution figures.
type Histogram struct {
	Min, Max float64
	Counts   []int
	Total    int
	Under    int // samples below Min
	Over     int // samples above Max
}

// NewHistogram creates a histogram over [min,max) with the given
// number of bins.
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: NewHistogram: bins %d must be > 0", bins)
	}
	if !(max > min) {
		return nil, fmt.Errorf("stats: NewHistogram: need max > min, got [%g,%g]", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}, nil
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.Total++
	switch {
	case x < h.Min:
		h.Under++
	case x >= h.Max:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Min) / (h.Max - h.Min))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// Density returns the normalized density of bin i (integrates to the
// in-range fraction of the sample).
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return float64(h.Counts[i]) / (float64(h.Total) * w)
}
