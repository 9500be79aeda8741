package counterminer

import (
	"errors"
	"fmt"
	"strings"
)

// The pipeline's typed error taxonomy. Every failure Analyze can return
// for operational (rather than configuration) reasons wraps one of
// these sentinels, so callers can dispatch with errors.Is and recover
// detail with errors.As:
//
//	var qe *counterminer.QuorumError
//	if errors.As(err, &qe) { ... qe.Succeeded, qe.Failures ... }
var (
	// ErrRunFailed marks one benchmark run that exhausted its Collect
	// retries.
	ErrRunFailed = errors.New("counterminer: run failed")
	// ErrSeriesInvalid marks collected series data that validation
	// rejected (the analysis cannot proceed on what survived).
	ErrSeriesInvalid = errors.New("counterminer: series invalid")
	// ErrQuorum marks an analysis abandoned because fewer than MinRuns
	// of the requested runs could be collected.
	ErrQuorum = errors.New("counterminer: run quorum not met")
	// ErrCanceled marks an analysis abandoned because its context was
	// canceled or its deadline expired. The concrete error is a
	// *CancelError naming the stage that observed the cancellation; it
	// also matches context.Canceled / context.DeadlineExceeded via
	// errors.Is, so callers can dispatch either way.
	ErrCanceled = errors.New("counterminer: analysis canceled")
)

// ErrBadOptions marks Options that NewPipeline rejects before any
// compute is spent. The concrete error is an *OptionError.
var ErrBadOptions = errors.New("counterminer: invalid options")

// OptionError reports one invalid Options field. It matches
// ErrBadOptions under errors.Is.
type OptionError struct {
	// Field names the offending Options field; Reason says what is
	// wrong with it.
	Field, Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("counterminer: invalid option %s: %s", e.Field, e.Reason)
}

// Is matches ErrBadOptions.
func (e *OptionError) Is(target error) bool { return target == ErrBadOptions }

// CancelError reports an analysis abandoned at a stage boundary (or
// inside a stage's interior loop) because the context was done. It
// matches ErrCanceled under errors.Is and unwraps to the underlying
// context error (context.Canceled or context.DeadlineExceeded).
type CancelError struct {
	// Stage names the pipeline stage — or, for experiment sweeps, the
	// experiment — that observed the cancellation.
	Stage string
	// Err is the context's error.
	Err error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("counterminer: canceled during %s: %v", e.Stage, e.Err)
}

// Unwrap exposes the context error to errors.Is/As.
func (e *CancelError) Unwrap() error { return e.Err }

// Is matches ErrCanceled.
func (e *CancelError) Is(target error) bool { return target == ErrCanceled }

// RunError reports one run that failed after all retry attempts. It
// matches ErrRunFailed under errors.Is and unwraps to the final
// attempt's underlying error.
type RunError struct {
	// Benchmark and RunID locate the failed run.
	Benchmark string
	RunID     int
	// Attempts is how many Collect attempts were made.
	Attempts int
	// Err is the last attempt's error.
	Err error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("counterminer: %s/run %d failed after %d attempt(s): %v",
		e.Benchmark, e.RunID, e.Attempts, e.Err)
}

// Unwrap exposes the final attempt's error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// Is matches ErrRunFailed.
func (e *RunError) Is(target error) bool { return target == ErrRunFailed }

// QuorumError reports an analysis abandoned because too few runs
// succeeded. It matches ErrQuorum under errors.Is.
type QuorumError struct {
	// Benchmark is the analysed workload.
	Benchmark string
	// Succeeded, Required, and Attempted count the collection outcome:
	// Succeeded of Attempted runs completed, Required were needed.
	Succeeded, Required, Attempted int
	// Failures describes the runs that failed.
	Failures []RunFailure
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("counterminer: %s: %d of %d runs succeeded, need %d: quorum not met",
		e.Benchmark, e.Succeeded, e.Attempted, e.Required)
}

// Is matches ErrQuorum.
func (e *QuorumError) Is(target error) bool { return target == ErrQuorum }

// SeriesError reports an analysis abandoned because validation
// quarantined too many event columns. It matches ErrSeriesInvalid under
// errors.Is.
type SeriesError struct {
	// Benchmark is the analysed workload.
	Benchmark string
	// Remaining is how many usable event columns survived validation
	// (an analysis needs at least two).
	Remaining int
	// Quarantined describes the rejected columns.
	Quarantined []Quarantine
}

func (e *SeriesError) Error() string {
	reasons := make([]string, 0, len(e.Quarantined))
	for _, q := range e.Quarantined {
		reasons = append(reasons, q.Event+": "+q.Reason)
		if len(reasons) == 3 && len(e.Quarantined) > 3 {
			reasons = append(reasons, fmt.Sprintf("… %d more", len(e.Quarantined)-3))
			break
		}
	}
	return fmt.Sprintf("counterminer: %s: only %d usable event column(s) after quarantining %d (%s)",
		e.Benchmark, e.Remaining, len(e.Quarantined), strings.Join(reasons, "; "))
}

// Is matches ErrSeriesInvalid.
func (e *SeriesError) Is(target error) bool { return target == ErrSeriesInvalid }
