// Package stats implements the statistical machinery CounterMiner needs:
// descriptive statistics, the Gaussian / Gumbel / logistic / generalized
// extreme value (GEV) distributions used for the event-value census of
// §III-B, the Anderson-Darling goodness-of-fit test (the paper uses
// scipy.stats.anderson), and histogramming for the outlier-replacement
// rule of eq. (7).
//
// Everything is implemented from scratch on the standard library.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
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

// Variance returns the population variance of xs (0 if fewer than two
// samples).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanStd returns both the mean and the population standard deviation in
// one pass over the data.
func MeanStd(xs []float64) (mean, std float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sum, sumsq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	mean = sum / float64(n)
	v := sumsq/float64(n) - mean*mean
	if v < 0 {
		v = 0 // guard against FP cancellation
	}
	return mean, math.Sqrt(v)
}

// MinMax returns the extrema of xs; (+Inf, -Inf) for empty input.
func MinMax(xs []float64) (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Median returns the median of xs, or 0 for empty input. xs is not
// modified. The middle order statistics of a copy come from selection
// (select.go), so the result equals the sorted-copy median; an input
// holding a NaN is sorted instead, as before.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	buf := append([]float64(nil), xs...)
	if hasNaN(buf) {
		sort.Float64s(buf)
		if n%2 == 1 {
			return buf[n/2]
		}
		return (buf[n/2-1] + buf[n/2]) / 2
	}
	selectRank(buf, n/2)
	if n%2 == 1 {
		return buf[n/2]
	}
	// buf[:n/2] holds the n/2 smallest values; its maximum is the
	// lower middle order statistic.
	swapMax(buf[:n/2])
	return (buf[n/2-1] + buf[n/2]) / 2
}

// Skewness returns the sample skewness (Fisher-Pearson, population
// normalisation) of xs, or 0 for fewer than three samples or a constant
// sample. The event-value census uses it to distinguish long-tail
// distributions from symmetric ones.
func Skewness(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return 0
	}
	m, sd := MeanStd(xs)
	if sd == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		d := (x - m) / sd
		s += d * d * d
	}
	return s / float64(n)
}

// Correlation returns the Pearson correlation coefficient between xs and
// ys, which must have equal nonzero length. It returns 0 when either
// side is constant.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: correlation of unequal-length samples")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, sx := MeanStd(xs)
	my, sy := MeanStd(ys)
	if sx == 0 || sy == 0 {
		return 0, nil
	}
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / (float64(len(xs)) * sx * sy), nil
}
