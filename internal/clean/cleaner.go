package clean

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"counterminer/internal/timeseries"
)

// Meta carries what the pipeline knows about the run a set was
// collected from — context a cleaner may exploit but must not require.
// The zero value ("no idea where this came from") is always legal:
// every cleaner falls back to purely data-driven repair.
type Meta struct {
	// Benchmark is the workload the set was collected from ("external"
	// for data that did not come from the simulated cluster).
	Benchmark string
	// Groups is the multiplexing group count the collection ran under:
	// 1 means OCOE (no multiplexing error at all), 0 means unknown. A
	// caught burst overshoots by roughly ×Groups, so cleaners that
	// model the MLPX physics key their correction on it.
	Groups int
}

// Cleaner is the Clean-stage seam: one strategy for repairing
// multiplexing errors in a collected series set. Implementations must
// be deterministic — bit-identical output for identical input at any
// Options.Workers value — because the pipeline's results are content-
// addressed by everything except worker counts. The input set is never
// modified.
type Cleaner interface {
	// Name is the registry key, recorded in Analysis.Cleaner and mixed
	// into the result-cache content address.
	Name() string
	// Clean repairs every series in the set, returning a new set and an
	// aggregate report.
	Clean(ctx context.Context, in *timeseries.Set, meta Meta, opts Options) (*timeseries.Set, SetReport, error)
}

// DefaultCleaner is the registry name of the paper's §III-B cleaner
// (threshold outlier replacement + KNN imputation), selected whenever
// Options.Cleaner is empty.
const DefaultCleaner = "threshold-knn"

// ErrUnknownCleaner matches (via errors.Is) the typed error Lookup
// returns for a name no cleaner registered under.
var ErrUnknownCleaner = errors.New("clean: unknown cleaner")

// UnknownCleanerError reports a cleaner name that resolves to nothing,
// with the candidate names a caller should list to the user.
type UnknownCleanerError struct {
	// Name is the unknown cleaner name as requested.
	Name string
	// Candidates are the registered names matching Name as a substring,
	// or all registered names when nothing matches.
	Candidates []string
}

func (e *UnknownCleanerError) Error() string {
	return fmt.Sprintf("clean: unknown cleaner %q; candidates: %s",
		e.Name, strings.Join(e.Candidates, ", "))
}

// Is matches ErrUnknownCleaner.
func (e *UnknownCleanerError) Is(target error) bool { return target == ErrUnknownCleaner }

// registry holds every cleaner under its Name. Nothing writes it after
// package initialisation, so reads need no lock.
var registry = map[string]Cleaner{
	DefaultCleaner: thresholdKNN{},
	BayesCleaner:   newBayes(),
}

// Names returns every registered cleaner name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a cleaner name ("" selects DefaultCleaner). An
// unknown name returns a *UnknownCleanerError carrying candidate names,
// matching ErrUnknownCleaner via errors.Is.
func Lookup(name string) (Cleaner, error) {
	if name == "" {
		name = DefaultCleaner
	}
	c, ok := registry[name]
	if !ok {
		return nil, &UnknownCleanerError{Name: name, Candidates: Candidates(name)}
	}
	return c, nil
}

// Candidates lists registered cleaner names containing name as a
// case-insensitive substring, falling back to all names — the same UX
// the CLIs use for unknown benchmarks and experiments.
func Candidates(name string) []string {
	all := Names()
	low := strings.ToLower(name)
	var out []string
	for _, n := range all {
		if strings.Contains(strings.ToLower(n), low) {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return all
	}
	return out
}

// ErrBadOptions matches (via errors.Is) every typed Options validation
// failure.
var ErrBadOptions = errors.New("clean: invalid options")

// OptionError reports one invalid Options field.
type OptionError struct {
	// Field names the offending Options field; Reason says what is
	// wrong with it.
	Field, Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("clean: invalid option %s: %s", e.Field, e.Reason)
}

// Is matches ErrBadOptions.
func (e *OptionError) Is(target error) bool { return target == ErrBadOptions }

// Validate rejects option values that would silently produce garbage
// downstream: a NaN/Inf or negative outlier threshold multiplier, a
// negative KNN neighbour count, and an unknown cleaner name. Zero N and
// K remain legal — they select the paper defaults, like the rest of the
// options surface. Every seam that accepts Options (the cleaners,
// NewPipeline, the serving layer) validates before spending compute.
func (o Options) Validate() error {
	if math.IsNaN(o.N) || math.IsInf(o.N, 0) {
		return &OptionError{Field: "N", Reason: fmt.Sprintf("threshold multiplier must be finite, got %v", o.N)}
	}
	if o.N < 0 {
		return &OptionError{Field: "N", Reason: fmt.Sprintf("threshold multiplier must be >= 0 (0 = default %d), got %g", DefaultN, o.N)}
	}
	if o.K < 0 {
		return &OptionError{Field: "K", Reason: fmt.Sprintf("neighbour count must be >= 0 (0 = default %d), got %d", DefaultK, o.K)}
	}
	if o.Cleaner != "" {
		if _, err := Lookup(o.Cleaner); err != nil {
			return err
		}
	}
	return nil
}

// thresholdKNN is the paper's §III-B cleaner behind the Cleaner seam:
// iterative threshold outlier replacement plus KNN imputation, exactly
// the Series/SetCtx implementation this package has always shipped.
// Re-homing it here changes nothing about its output — the default
// pipeline stays bit-identical to the pre-seam pipeline.
type thresholdKNN struct{}

func (thresholdKNN) Name() string { return DefaultCleaner }

func (thresholdKNN) Clean(ctx context.Context, in *timeseries.Set, _ Meta, opts Options) (*timeseries.Set, SetReport, error) {
	return SetCtx(ctx, in, opts)
}
