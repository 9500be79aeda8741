package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// bigRecord pads the series so each on-disk record spans many bytes —
// truncation tests can then damage exactly the tail record.
func bigRecord(benchmark string, runID int) Record {
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(runID*1000 + i)
	}
	return Record{
		Meta:   RunMeta{Benchmark: benchmark, RunID: runID, Mode: "MLPX"},
		IPC:    vals,
		Series: map[string][]float64{"A.EVENT": vals},
	}
}

func flushedStore(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := db.Put(bigRecord("wordcount", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runFile returns the path of one MLPX run's file in a store directory.
func runFile(dir, benchmark string, runID int) string {
	return filepath.Join(dir, benchDirName(benchmark), runFileName(runID, "MLPX"))
}

// TestOpenTruncatedFileSkipsTail: truncating a run file loses only that
// run. Its size no longer matches its head, so Open skips and counts it
// without reading any series; the benchmark's other runs are intact.
func TestOpenTruncatedFileSkipsTail(t *testing.T) {
	path := flushedStore(t, 3)
	file := runFile(path, "wordcount", 3)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last run's series: every other run must survive.
	if err := os.WriteFile(file, raw[:len(raw)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := Open(path)
	if err != nil {
		t.Fatalf("store with truncated run file failed to open: %v", err)
	}
	// Touch the shard: the damaged run stays dropped and counted once.
	if _, ok := db.Get("wordcount", 3, "MLPX"); ok {
		t.Error("truncated record reported found")
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d, want 2 surviving records", db.Len())
	}
	if db.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1", db.Skipped())
	}
	// Survivors are intact.
	for runID := 1; runID <= 2; runID++ {
		rec, ok := db.Get("wordcount", runID, "MLPX")
		if !ok {
			t.Fatalf("surviving run %d missing", runID)
		}
		if len(rec.Series["A.EVENT"]) != 300 {
			t.Errorf("run %d series damaged: %d values", runID, len(rec.Series["A.EVENT"]))
		}
	}
}

// TestOpenCorruptShardIndexSkipsShard: a run file whose head is
// destroyed loses that run only — the rest of the catalog opens
// normally.
func TestOpenCorruptShardIndexSkipsShard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.Put(bigRecord("wordcount", 1))
	db.Put(bigRecord("pagerank", 1))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	victim := runFile(path, "pagerank", 1)
	if err := os.WriteFile(victim, []byte("not a run file at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatalf("store with one corrupt shard failed to open: %v", err)
	}
	if re.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1 (the destroyed run file)", re.Skipped())
	}
	if _, ok := re.Get("pagerank", 1, "MLPX"); ok {
		t.Error("destroyed shard's record reported found")
	}
	rec, ok := re.Get("wordcount", 1, "MLPX")
	if !ok || len(rec.Series["A.EVENT"]) != 300 {
		t.Errorf("healthy shard damaged by neighbour corruption: ok=%v", ok)
	}
}

func TestOpenHealthyFileSkipsNothing(t *testing.T) {
	db, err := Open(flushedStore(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Len(); n != 3 {
		t.Errorf("Len = %d, want 3", n)
	}
	for runID := 1; runID <= 3; runID++ {
		if _, ok := db.Get("wordcount", runID, "MLPX"); !ok {
			t.Fatalf("run %d missing", runID)
		}
	}
	if db.Skipped() != 0 {
		t.Errorf("Skipped = %d, want 0", db.Skipped())
	}
}

func TestStatsReportSkippedRecords(t *testing.T) {
	path := flushedStore(t, 3)
	file := runFile(path, "wordcount", 3)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, raw[:len(raw)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.Get("wordcount", 1, "MLPX") // the damage surfaces at Open already
	if got := db.Summarize().SkippedRecords; got != 1 {
		t.Errorf("Stats.SkippedRecords = %d, want 1", got)
	}
}

// TestFlushDeterministic: flushing the same contents twice produces
// byte-identical run files under identical names.
func TestFlushDeterministic(t *testing.T) {
	a, b := storeFiles(t, flushedStore(t, 3)), storeFiles(t, flushedStore(t, 3))
	if len(a) != 3 {
		t.Fatalf("store holds %d files, want 3 run files: %v", len(a), a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two flushes of identical contents differ on disk")
	}
}
