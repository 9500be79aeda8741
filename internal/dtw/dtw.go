// Package dtw implements Dynamic Time Warping, the alignment distance
// CounterMiner uses to compare event time series of different lengths
// (§II-B, eq. (1)–(4)). Two runs of the same program produce series of
// different lengths because of OS nondeterminism, so Euclidean or
// Manhattan distance is undefined; DTW warps the time axes of both
// series to minimise the accumulated pointwise distance.
package dtw

import (
	"errors"
	"math"
)

// ErrEmptySeries is returned when either input series is empty.
var ErrEmptySeries = errors.New("dtw: empty series")

// Options controls the DTW computation.
type Options struct {
	// Window is the Sakoe-Chiba band half-width. Zero means an
	// unconstrained (full) alignment. A window w only permits aligning
	// s1[i] with s2[j] when |i·len2/len1 − j| <= w, which bounds both
	// runtime and pathological warping.
	Window int
}

// Distance returns the unconstrained DTW distance between s1 and s2
// using absolute pointwise differences.
func Distance(s1, s2 []float64) (float64, error) {
	return DistanceOpt(s1, s2, Options{})
}

// DistanceOpt returns the DTW distance between s1 and s2 under opts.
// The dynamic program uses O(min(len1,len2)) memory.
func DistanceOpt(s1, s2 []float64, opts Options) (float64, error) {
	if len(s1) == 0 || len(s2) == 0 {
		return 0, ErrEmptySeries
	}
	// Keep s2 as the inner (column) dimension; swap so columns are the
	// shorter side for memory economy. DTW over absolute differences is
	// symmetric, and our band is defined relative to the diagonal, so
	// swapping is safe.
	if len(s2) > len(s1) {
		s1, s2 = s2, s1
	}
	n, m := len(s1), len(s2)

	inf := math.Inf(1)
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0

	for i := 1; i <= n; i++ {
		curr[0] = inf
		lo, hi := 1, m
		if opts.Window > 0 {
			// Centre of the band for row i in column coordinates.
			c := (i - 1) * m / n
			lo = c + 1 - opts.Window
			hi = c + 1 + opts.Window
			if lo < 1 {
				lo = 1
			}
			if hi > m {
				hi = m
			}
			for j := 1; j < lo; j++ {
				curr[j] = inf
			}
			for j := hi + 1; j <= m; j++ {
				curr[j] = inf
			}
		}
		for j := lo; j <= hi; j++ {
			d := math.Abs(s1[i-1] - s2[j-1])
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if curr[j-1] < best {
				best = curr[j-1] // deletion
			}
			if best == inf {
				curr[j] = inf
			} else {
				curr[j] = d + best
			}
		}
		prev, curr = curr, prev
	}
	if prev[m] == inf {
		return 0, errors.New("dtw: window too narrow for series lengths")
	}
	return prev[m], nil
}

// MLPXError implements eq. (4) of the paper:
//
//	error = |1 - dist_ref / dist_mea| * 100%
//
// where dist_ref = DTW(ocoe1, ocoe2) is the distance between two OCOE
// reference runs (nonzero only because of OS nondeterminism) and
// dist_mea = DTW(mlpx, ocoe1) is the distance between an MLPX run and an
// OCOE reference. The result is in percent.
func MLPXError(ocoe1, ocoe2, mlpx []float64) (float64, error) {
	distRef, err := Distance(ocoe1, ocoe2)
	if err != nil {
		return 0, err
	}
	distMea, err := Distance(mlpx, ocoe1)
	if err != nil {
		return 0, err
	}
	if distMea == 0 {
		// A perfect MLPX measurement: by convention the error is zero
		// when the reference distance is also ~zero.
		if distRef == 0 {
			return 0, nil
		}
		return 0, errors.New("dtw: zero measured distance with nonzero reference")
	}
	return math.Abs(1-distRef/distMea) * 100, nil
}
