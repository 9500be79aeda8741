// Package clean implements CounterMiner's data cleaner (§III-B). It
// repairs the two error classes multiplexed counter measurements
// suffer from, after (not during) sampling:
//
//  1. Outliers — values above mean + n·std (n = 5 per the paper's
//     Table I calibration: with n = 5, more than 99% of event data
//     falls inside the threshold even for the long-tail GEV events).
//     An outlier is replaced by the median of the equal-width histogram
//     interval it falls in; the interval width follows eq. (7):
//     L = (max − min) / roundup(sqrt(count)).
//
//  2. Missing values — zeros written when the event's activity was
//     entirely missed during its counter slice. A zero is treated as
//     genuinely zero only when the event's past minimum is zero and its
//     maximum is below a small bound (0.01 per §III-B-2); otherwise it
//     is filled by KNN regression (k = 5) on the neighbouring samples.
//
// Implementation notes beyond the paper's text: the threshold statistics
// are computed over the nonzero values (zeros are missing-value
// candidates, and including them would drag the mean down), and the
// threshold-replace step iterates until no value exceeds the refreshed
// threshold — a single pass lets extreme outliers inflate the standard
// deviation enough to shelter more moderate ones. Missing values are
// filled last so the KNN neighbourhoods consist of repaired values.
package clean

import (
	"context"
	"errors"
	"fmt"
	"math"

	"counterminer/internal/knn"
	"counterminer/internal/parallel"
	"counterminer/internal/stats"
	"counterminer/internal/timeseries"
)

// DefaultN is the outlier-threshold multiplier the paper settles on.
const DefaultN = 5

// DefaultK is the KNN neighbour count for missing-value filling.
const DefaultK = 5

// maxOutlierRounds bounds the iterative threshold-replace loop.
const maxOutlierRounds = 8

// zeroBound is the §III-B-2 maximum below which an all-but-zero event's
// zeros are considered real rather than missing.
const zeroBound = 0.01

// Options configures the cleaner. The zero value selects the paper's
// settings under the default threshold-knn cleaner.
type Options struct {
	// Cleaner selects the cleaning strategy by registry name; empty
	// selects DefaultCleaner (the paper's threshold+KNN pipeline).
	Cleaner string
	// N is the outlier threshold multiplier (default 5).
	N float64
	// K is the KNN neighbour count (default 5).
	K int
	// SkipOutliers disables outlier replacement (for ablations).
	SkipOutliers bool
	// SkipMissing disables missing-value filling (for ablations).
	SkipMissing bool
	// Workers bounds how many series Set cleans concurrently; <= 0
	// uses GOMAXPROCS. Each series cleans independently, so the output
	// is identical for every worker count.
	Workers int
}

// WithDefaults returns a copy of o with every unset field resolved:
// the cleaner name canonicalized (empty → DefaultCleaner) and N/K
// raised to the paper defaults. Serving layers canonicalize before
// hashing, so a zero field and an explicit default produce the same
// content address — and two cleaner names never collide. Workers is
// left alone: it can never change results, so it stays out of every
// identity.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Cleaner == "" {
		o.Cleaner = DefaultCleaner
	}
	if o.N <= 0 {
		o.N = DefaultN
	}
	if o.K <= 0 {
		o.K = DefaultK
	}
	return o
}

// ValidateSeries checks whether a collected event series is usable at
// all, before any cleaning. It returns nil for a usable series and an
// error naming the defect otherwise. The pipeline quarantines event
// columns that fail validation instead of aborting the analysis:
//
//   - a series shorter or longer than the run's IPC (wantLen) cannot be
//     column-aligned into the training matrix (truncated or dropped
//     intervals);
//   - non-finite values (NaN/Inf) would poison every downstream
//     statistic;
//   - a constant series is a dead counter: it carries no information
//     and its zero variance breaks threshold statistics.
//
// wantLen <= 0 skips the length check.
func ValidateSeries(values []float64, wantLen int) error {
	if len(values) == 0 {
		return errors.New("empty series")
	}
	if wantLen > 0 && len(values) != wantLen {
		return fmt.Errorf("length %d, want %d intervals", len(values), wantLen)
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite value %v at interval %d", v, i)
		}
	}
	if len(values) > 1 {
		min, max := stats.MinMax(values)
		if min == max {
			return fmt.Errorf("constant series (dead counter, value %g)", min)
		}
	}
	return nil
}

// Report describes what the cleaner changed in one series.
type Report struct {
	// Outliers is the number of values replaced as outliers.
	Outliers int
	// Missing is the number of values filled as missing (zeros plus
	// non-finite garbage).
	Missing int
	// NonFinite is how many of the filled values were NaN/Inf garbage
	// rather than zeros.
	NonFinite int
	// Threshold is the final outlier threshold that was applied.
	Threshold float64
	// Rounds is how many threshold-replace iterations ran.
	Rounds int
	// ZerosKeptGenuine reports whether zeros were classified as real
	// values (the min==0 && max<0.01 rule) instead of missing.
	ZerosKeptGenuine bool
}

// Series cleans one event time series and returns the cleaned copy with
// a report. The input is not modified.
func Series(values []float64, opts Options) ([]float64, Report, error) {
	if len(values) == 0 {
		return nil, Report{}, errors.New("clean: empty series")
	}
	if err := opts.Validate(); err != nil {
		return nil, Report{}, err
	}
	opts = opts.withDefaults()
	out := append([]float64(nil), values...)
	var rep Report

	// Non-finite values (NaN/Inf garbage from a broken collection) can
	// never be used as-is: they join the missing set so the KNN fill
	// repairs them from finite neighbours, and they are excluded from
	// every statistic below. A series with no finite values at all is
	// unrecoverable.
	var missing []int
	finite := make([]float64, 0, len(out))
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, i)
			rep.NonFinite++
			continue
		}
		finite = append(finite, v)
	}
	if len(finite) == 0 {
		return nil, Report{}, errors.New("clean: no finite values in series")
	}

	// Classify zeros up front: they are missing-value candidates and
	// must not contaminate the outlier statistics.
	if !opts.SkipMissing {
		min, max := stats.MinMax(finite)
		if min == 0 && max < zeroBound {
			rep.ZerosKeptGenuine = true
		} else {
			for i, v := range out {
				if v == 0 {
					missing = append(missing, i)
				}
			}
		}
	}
	isMissing := make([]bool, len(out))
	for _, i := range missing {
		isMissing[i] = true
	}

	// ----- Outliers: eq. (6) threshold, eq. (7) bin-median replacement,
	// iterated to a fixed point.
	if !opts.SkipOutliers {
		for round := 0; round < maxOutlierRounds; round++ {
			present := make([]float64, 0, len(out))
			for i, v := range out {
				if !isMissing[i] {
					present = append(present, v)
				}
			}
			if len(present) < 3 {
				break
			}
			mean, std := stats.MeanStd(present)
			threshold := mean + opts.N*std
			rep.Threshold = threshold
			rep.Rounds = round + 1
			if std == 0 {
				break
			}
			var idxs []int
			normal := make([]float64, 0, len(present))
			for i, v := range out {
				if isMissing[i] {
					continue
				}
				if v > threshold {
					idxs = append(idxs, i)
				} else {
					normal = append(normal, v)
				}
			}
			if len(idxs) == 0 || len(normal) == 0 {
				break
			}
			h, err := stats.NewHistogram(normal)
			if err != nil {
				return nil, Report{}, fmt.Errorf("clean: %w", err)
			}
			for _, i := range idxs {
				out[i] = h.BinMedian(out[i])
			}
			rep.Outliers += len(idxs)
		}
	}

	// ----- Missing values: KNN over the repaired neighbours.
	if len(missing) > 0 && len(missing) < len(out) {
		filled, err := knn.ImputeSeries(out, missing, opts.K)
		if err != nil {
			return nil, Report{}, fmt.Errorf("clean: %w", err)
		}
		out = filled
		rep.Missing = len(missing)
	}
	return out, rep, nil
}

// SetReport aggregates per-event reports for a cleaned set.
type SetReport struct {
	// PerEvent maps event name to its cleaning report.
	PerEvent map[string]Report
	// TotalOutliers and TotalMissing aggregate over all events.
	TotalOutliers, TotalMissing int
}

// Set cleans every series in a timeseries.Set, returning a new set and
// an aggregate report. The per-event repairs — outlier replacement and
// KNN imputation — are independent, so the events clean concurrently;
// the aggregate report is assembled serially in event order.
func Set(in *timeseries.Set, opts Options) (*timeseries.Set, SetReport, error) {
	return SetCtx(context.Background(), in, opts)
}

// SetCtx is Set with cooperative cancellation: the per-event pool
// checks the context between series, so a done context aborts within
// one series repair and surfaces as ctx.Err().
func SetCtx(ctx context.Context, in *timeseries.Set, opts Options) (*timeseries.Set, SetReport, error) {
	if err := opts.Validate(); err != nil {
		return nil, SetReport{}, err
	}
	events := in.Events()
	type result struct {
		values []float64
		rep    Report
	}
	results, err := parallel.MapCtx(ctx, len(events), opts.Workers, func(i int) (result, error) {
		s, err := in.Lookup(events[i])
		if err != nil {
			return result{}, fmt.Errorf("clean: %w", err)
		}
		cleaned, r, err := Series(s.Values, opts)
		if err != nil {
			return result{}, fmt.Errorf("clean: event %s: %w", events[i], err)
		}
		return result{cleaned, r}, nil
	})
	if err != nil {
		return nil, SetReport{}, err
	}
	out := timeseries.NewSet()
	rep := SetReport{PerEvent: make(map[string]Report, in.Len())}
	for i, ev := range events {
		out.Put(timeseries.New(ev, results[i].values))
		rep.PerEvent[ev] = results[i].rep
		rep.TotalOutliers += results[i].rep.Outliers
		rep.TotalMissing += results[i].rep.Missing
	}
	return out, rep, nil
}

// ThresholdCoverage returns the percentage of values within
// mean + n·std, the quantity Table I tabulates to justify n = 5.
func ThresholdCoverage(values []float64, n float64) (float64, error) {
	if len(values) == 0 {
		return 0, errors.New("clean: empty series")
	}
	mean, std := stats.MeanStd(values)
	threshold := mean + n*std
	within := 0
	for _, v := range values {
		if v <= threshold {
			within++
		}
	}
	return float64(within) / float64(len(values)) * 100, nil
}
