package counterminer

import (
	"errors"
	"math"
	"math/big"
	"path/filepath"
	"reflect"
	"testing"

	"counterminer/internal/clean"
	"counterminer/internal/store"
)

// TestBayesAnalysisParallelMatchesSerial extends the pipeline-level
// determinism contract to the Bayesian cleaner: identical benchmark,
// seed, and event set must produce a bit-identical Analysis at every
// worker count. The bayes cleaner's peer subsampling is keyed purely by
// event name, so parallel scheduling must never leak into results.
func TestBayesAnalysisParallelMatchesSerial(t *testing.T) {
	analyze := func(workers int) *Analysis {
		t.Helper()
		opts := fastOptions(t)
		opts.Workers = workers
		opts.CleanOptions.Cleaner = "bayes"
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Analyze("wordcount")
		if err != nil {
			t.Fatal(err)
		}
		a.Stages = nil
		return a
	}

	serial := analyze(1)
	if serial.Cleaner != "bayes" {
		t.Fatalf("analysis cleaner = %q, want bayes", serial.Cleaner)
	}
	for _, workers := range []int{2, 8} {
		got := analyze(workers)
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("bayes analysis at workers=%d differs from workers=1:\n got %+v\nwant %+v",
				workers, got, serial)
		}
	}
}

// TestAnalysisRecordsCleanerName pins the Analysis metadata: the
// canonical cleaner name is recorded, with the empty selection
// canonicalized to the default.
func TestAnalysisRecordsCleanerName(t *testing.T) {
	p, err := NewPipeline(fastOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cleaner != clean.DefaultCleaner {
		t.Errorf("default analysis cleaner = %q, want %q", a.Cleaner, clean.DefaultCleaner)
	}
}

// TestStorePersistsRawUnderAnyCleaner pins the persistence invariant:
// the run store always holds the raw measurement, whichever cleaner
// repaired the working copy. Two pipelines differing only in cleaner
// must leave bit-identical stores.
func TestStorePersistsRawUnderAnyCleaner(t *testing.T) {
	collect := func(cleaner string) map[string]store.Record {
		t.Helper()
		opts := fastOptions(t)
		opts.StorePath = filepath.Join(t.TempDir(), "runs.db")
		opts.CleanOptions.Cleaner = cleaner
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Analyze("scan"); err != nil {
			t.Fatal(err)
		}
		db, err := store.Open(opts.StorePath)
		if err != nil {
			t.Fatal(err)
		}
		recs := make(map[string]store.Record)
		for _, m := range db.List() {
			rec, ok := db.Get(m.Benchmark, m.RunID, m.Mode)
			if !ok {
				t.Fatalf("record %s/%d/%s missing", m.Benchmark, m.RunID, m.Mode)
			}
			recs[m.Benchmark+"/"+m.Mode] = rec
		}
		return recs
	}

	knn := collect("threshold-knn")
	bayes := collect("bayes")
	if len(knn) == 0 || len(knn) != len(bayes) {
		t.Fatalf("store records: knn %d, bayes %d", len(knn), len(bayes))
	}
	for k, kr := range knn {
		br, ok := bayes[k]
		if !ok {
			t.Fatalf("record %s missing under bayes", k)
		}
		if !reflect.DeepEqual(kr.Series, br.Series) || !reflect.DeepEqual(kr.IPC, br.IPC) {
			t.Errorf("record %s differs between cleaners — cleaned values leaked into the store", k)
		}
	}
}

// TestNewPipelineRejectsBadCleanerOptions pins the seam validation:
// unknown cleaner names and nonsense clean options fail NewPipeline
// with the typed errors, before any compute is spent.
func TestNewPipelineRejectsBadCleanerOptions(t *testing.T) {
	opts := fastOptions(t)
	opts.CleanOptions.Cleaner = "nope"
	if _, err := NewPipeline(opts); !errors.Is(err, clean.ErrUnknownCleaner) {
		t.Errorf("unknown cleaner error = %v, want ErrUnknownCleaner", err)
	}

	opts = fastOptions(t)
	opts.CleanOptions.N = math.NaN()
	if _, err := NewPipeline(opts); !errors.Is(err, clean.ErrBadOptions) {
		t.Errorf("NaN threshold error = %v, want ErrBadOptions", err)
	}

	opts = fastOptions(t)
	opts.CleanOptions.K = -1
	_, err := NewPipeline(opts)
	var oe *clean.OptionError
	if !errors.As(err, &oe) || oe.Field != "K" {
		t.Errorf("negative K error = %v, want *OptionError on K", err)
	}
}

// TestNewPipelineRejectsCollidingRunIDs: run r of an analysis has id
// Seed*100 + r, so NewPipeline accepts at most MaxRuns runs and only
// seeds whose run ids Seed*100 + 1 .. Seed*100 + Runs fit in an int,
// checked here against exact big-integer arithmetic on both sides of
// each bound.
func TestNewPipelineRejectsCollidingRunIDs(t *testing.T) {
	if _, err := NewPipeline(Options{Runs: MaxRuns}); err != nil {
		t.Errorf("Runs = MaxRuns: %v", err)
	}
	_, err := NewPipeline(Options{Runs: MaxRuns + 1})
	var oe *OptionError
	if !errors.Is(err, ErrBadOptions) || !errors.As(err, &oe) || oe.Field != "Runs" {
		t.Errorf("Runs = MaxRuns+1: error %v, want *OptionError on Runs", err)
	}

	minInt, maxInt := big.NewInt(math.MinInt), big.NewInt(math.MaxInt)
	fits := func(seed int64, runs int) bool {
		id := new(big.Int).Mul(big.NewInt(seed), big.NewInt(100))
		first := new(big.Int).Add(id, big.NewInt(1))
		last := new(big.Int).Add(id, big.NewInt(int64(runs)))
		return first.Cmp(minInt) >= 0 && last.Cmp(maxInt) <= 0
	}
	for _, runs := range []int{1, 3, MaxRuns} {
		hi := (int64(math.MaxInt) - int64(runs)) / 100
		lo := int64(math.MinInt) / 100
		for _, seed := range []int64{hi - 1, hi, hi + 1, lo - 1, lo, lo + 1, math.MaxInt64, math.MinInt64} {
			_, err := NewPipeline(Options{Runs: runs, Seed: seed})
			want := fits(seed, runs)
			if (err == nil) != want {
				t.Errorf("Runs %d Seed %d: error %v, want accepted=%v", runs, seed, err, want)
			}
			if err != nil && (!errors.As(err, &oe) || oe.Field != "Seed") {
				t.Errorf("Runs %d Seed %d: error %v, want *OptionError on Seed", runs, seed, err)
			}
		}
		if !fits(hi, runs) || fits(hi+1, runs) || !fits(lo, runs) || fits(lo-1, runs) {
			t.Errorf("Runs %d: seeds %d and %d are not the bounds", runs, lo, hi)
		}
	}
}
