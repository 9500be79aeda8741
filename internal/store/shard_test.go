package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// mediumRecord is a record with two event series plus IPC, sized so a
// few of them dominate a shard's byte budget.
func mediumRecord(benchmark string, runID int) Record {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(runID*1000 + i)
	}
	return Record{
		Meta:   RunMeta{Benchmark: benchmark, RunID: runID, Mode: "MLPX"},
		IPC:    vals,
		Series: map[string][]float64{"A.EVENT": vals, "B.EVENT": vals},
	}
}

// shardedStore builds and flushes a store holding one run per named
// benchmark.
func shardedStore(t *testing.T, benches ...string) (string, *DB) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range benches {
		if err := db.Put(mediumRecord(bench, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return path, db
}

// TestShardedLayoutOneFilePerRun: the store directory holds one
// directory per benchmark and each of those one file per run.
func TestShardedLayoutOneFilePerRun(t *testing.T) {
	path, db := shardedStore(t, "wordcount", "pagerank", "terasort")
	if err := db.Put(mediumRecord("wordcount", 2)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(benchDirName("pagerank"), runFileName(1, "MLPX")),
		filepath.Join(benchDirName("terasort"), runFileName(1, "MLPX")),
		filepath.Join(benchDirName("wordcount"), runFileName(1, "MLPX")),
		filepath.Join(benchDirName("wordcount"), runFileName(2, "MLPX")),
	}
	var got []string
	for rel := range storeFiles(t, path) {
		got = append(got, rel)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("store files = %v, want %v", got, want)
	}
}

func TestShardFileNameDistinct(t *testing.T) {
	long := strings.Repeat("x", 300)
	names := []string{"sort", "Sort", "so/rt", "so%2Frt", "sort.", ".sort", "日本", long + "a", long + "b"}
	seen := map[string]string{}
	for _, n := range names {
		for _, f := range []string{benchDirName(n), runFileName(1, n), runFileName(-1, n)} {
			if prev, dup := seen[f]; dup {
				t.Errorf("names %q and %q map to the same file %q", prev, n, f)
			}
			seen[f] = n
			if filepath.Base(f) != f || f == "" || f[0] == '.' || len(f) > 150 {
				t.Errorf("file %q for %q is not a short, plain, visible file name", f, n)
			}
		}
	}
	// A run id's sign and the mode stay apart: "1-a" is run 1 mode "a".
	if runFileName(-1, "a") == runFileName(1, "-a") || runFileName(1, "2-a") == runFileName(12, "a") {
		t.Error("run file names collide across run id and mode")
	}
}

func TestShardLazyLoadOnFirstTouch(t *testing.T) {
	path, _ := shardedStore(t, "alpha", "beta")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Catalog reads touch only the first level.
	if n := db.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	if got := len(db.List()); got != 2 {
		t.Fatalf("List = %d rows, want 2", got)
	}
	if rows := db.Select(Query{Benchmark: "alpha", Event: "A.EVENT"}); len(rows) != 1 || rows[0].Benchmark != "alpha" {
		t.Fatalf("Select(alpha, A.EVENT) = %+v", rows)
	}
	if got := len(db.Benchmarks()); got != 2 {
		t.Fatalf("Benchmarks = %d entries, want 2", got)
	}
	if s := db.Summarize(); s.Samples != 2*3*200 {
		t.Errorf("Summarize().Samples = %d, want %d without loading", s.Samples, 2*3*200)
	}
	if st := db.ShardStats(); st.Loads != 0 || st.Loaded != 0 {
		t.Fatalf("catalog reads loaded shards: %+v", st)
	}
	// First Get loads exactly the touched shard.
	rec, ok := db.Get("alpha", 1, "MLPX")
	if !ok || len(rec.Series["A.EVENT"]) != 200 {
		t.Fatalf("Get after lazy load: ok=%v rec=%+v", ok, rec.Meta)
	}
	st := db.ShardStats()
	if st.Loads != 1 || st.Loaded != 1 {
		t.Errorf("after one Get: Loads=%d Loaded=%d, want 1/1", st.Loads, st.Loaded)
	}
	if st.ResidentBytes != 3*200*bytesPerSample {
		t.Errorf("ResidentBytes = %d, want %d", st.ResidentBytes, 3*200*bytesPerSample)
	}
}

func TestShardEvictionUnderMemBudget(t *testing.T) {
	path, _ := shardedStore(t, "alpha", "beta", "gamma")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	shardBytes := int64(3 * 200 * bytesPerSample) // 3 series × 200 values
	db.SetMemBudget(shardBytes + shardBytes/2)    // room for one shard only

	for _, bench := range []string{"alpha", "beta", "gamma", "alpha", "beta"} {
		rec, ok := db.Get(bench, 1, "MLPX")
		if !ok || len(rec.Series["A.EVENT"]) != 200 {
			t.Fatalf("Get(%s) under budget: ok=%v", bench, ok)
		}
	}
	st := db.ShardStats()
	if st.Evictions == 0 {
		t.Error("no evictions under a one-shard budget")
	}
	if st.Loads < 4 {
		t.Errorf("Loads = %d, want reloads after eviction (>= 4)", st.Loads)
	}
	if st.ResidentBytes > st.MemBudgetBytes {
		t.Errorf("ResidentBytes %d exceeds budget %d after eviction pass", st.ResidentBytes, st.MemBudgetBytes)
	}
	if db.Skipped() != 0 {
		t.Errorf("Skipped = %d after evict/reload cycles, want 0", db.Skipped())
	}
}

func TestShardEvictionSkipsDirty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.SetMemBudget(1) // everything over budget
	if err := db.Put(mediumRecord("alpha", 1)); err != nil {
		t.Fatal(err)
	}
	st := db.ShardStats()
	if st.Dirty != 1 || st.Loaded != 1 || st.Evictions != 0 {
		t.Fatalf("dirty shard evicted: %+v", st)
	}
	// Flushing cleans the shard; the next eviction pass may drop it.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.SetMemBudget(1)
	st = db.ShardStats()
	if st.Evictions != 1 || st.Loaded != 0 || st.ResidentBytes != 0 {
		t.Fatalf("clean shard not evicted: %+v", st)
	}
	// And the data still comes back.
	if _, ok := db.Get("alpha", 1, "MLPX"); !ok {
		t.Error("record lost across eviction")
	}
}

func TestShardWritebackFlushesDirtyDuringIdle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	stop := db.StartWriteback(5 * time.Millisecond)
	defer stop()
	if err := db.Put(mediumRecord("alpha", 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := db.ShardStats()
		if st.Dirty == 0 && st.WritebackFlushes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writeback never flushed the dirty shard: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get("alpha", 1, "MLPX"); !ok {
		t.Error("written-back record missing after reopen")
	}
}

// TestShardFlushWritesOnlyDirtyShards: an incremental flush writes the
// runs Put since the last flush, not the catalog or the rest of their
// shard.
func TestShardFlushWritesOnlyDirtyShards(t *testing.T) {
	_, db := shardedStore(t, "alpha", "beta", "gamma")
	var wrote []string
	db.failFlush = func(bench string) error {
		wrote = append(wrote, bench)
		return nil
	}
	if err := db.Put(mediumRecord("beta", 2)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wrote, []string{"beta"}) {
		t.Errorf("flush wrote runs of %v, want one run of beta only", wrote)
	}
	// A clean store flushes nothing at all.
	wrote = nil
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 0 {
		t.Errorf("no-op flush wrote %v", wrote)
	}
}

// TestShardFlushInjectedIOErrorIsolation: an I/O failure mid
// multi-shard flush leaves every run file it did not write intact and
// the store reopenable; retrying after the fault clears finishes the
// job.
func TestShardFlushInjectedIOErrorIsolation(t *testing.T) {
	path, db := shardedStore(t, "alpha", "beta", "gamma")
	before := storeFiles(t, path)
	// Dirty all three, then fail the middle one (flush walks shards in
	// benchmark order: alpha, beta, gamma).
	for _, bench := range []string{"alpha", "beta", "gamma"} {
		if err := db.Put(mediumRecord(bench, 2)); err != nil {
			t.Fatal(err)
		}
	}
	injected := errors.New("disk on fire")
	db.failFlush = func(bench string) error {
		if bench == "beta" {
			return injected
		}
		return nil
	}
	if err := db.Flush(); !errors.Is(err, injected) {
		t.Fatalf("Flush error = %v, want injected fault", err)
	}
	// alpha gained its run 2 file; beta and gamma did not; every run 1
	// file keeps its previous bytes.
	after := storeFiles(t, path)
	for rel, raw := range before {
		if !bytes.Equal(after[rel], raw) {
			t.Errorf("run file %s changed by the failed flush", rel)
		}
	}
	for bench, wantWritten := range map[string]bool{"alpha": true, "beta": false, "gamma": false} {
		_, err := os.Stat(runFile(path, bench, 2))
		if written := err == nil; written != wantWritten {
			t.Errorf("run 2 of %s written=%v, want %v", bench, written, wantWritten)
		}
	}
	// The store reopens: untouched shards serve their old contents.
	re, err := Open(path)
	if err != nil {
		t.Fatalf("store unreadable after failed flush: %v", err)
	}
	if n := re.Len(); n != 4 { // alpha has runs 1+2; beta/gamma still run 1
		t.Errorf("reopened Len = %d, want 4", n)
	}
	if re.Skipped() != 0 {
		t.Errorf("Skipped = %d, want 0", re.Skipped())
	}
	// Clearing the fault and retrying completes the flush.
	db.failFlush = nil
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := re2.Len(); n != 6 {
		t.Errorf("Len after retried flush = %d, want 6", n)
	}
}

// TestShardDeterministicAcrossWorkers: concurrent Put traffic at any
// worker count flushes to bit-identical run files.
func TestShardDeterministicAcrossWorkers(t *testing.T) {
	benches := []string{"alpha", "beta", "gamma", "delta"}
	type job struct {
		bench string
		run   int
	}
	var jobs []job
	for _, bench := range benches {
		for run := 1; run <= 8; run++ {
			jobs = append(jobs, job{bench, run})
		}
	}
	dump := func(workers int) map[string][]byte {
		path := filepath.Join(t.TempDir(), "runs.db")
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(jobs); i += workers {
					if err := db.Put(mediumRecord(jobs[i].bench, jobs[i].run)); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		return storeFiles(t, path)
	}
	base := dump(1)
	if len(base) != len(jobs) {
		t.Fatalf("store holds %d files, want %d run files", len(base), len(jobs))
	}
	for _, workers := range []int{2, 8} {
		if got := dump(workers); !reflect.DeepEqual(base, got) {
			t.Errorf("run files differ between workers=1 and workers=%d", workers)
		}
	}
}

// TestCompactRewritesAndCleans: Compact drops what a damaged store
// left behind — a damaged run file, the directory it emptied, stale
// temp files — and leaves healthy runs alone.
func TestCompactRewritesAndCleans(t *testing.T) {
	path, db := shardedStore(t, "alpha", "beta")
	if err := db.Put(mediumRecord("beta", 2)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Damage alpha's only run and beta's run 2 (a flipped series byte
	// only the checksum sees), and drop stale temp files in the store
	// and in beta's directory.
	file := runFile(path, "alpha", 1)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, raw[:len(raw)-30], 0o644); err != nil {
		t.Fatal(err)
	}
	file = runFile(path, "beta", 2)
	if raw, err = os.ReadFile(file); err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-20] ^= 1
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	stale := []string{filepath.Join(path, ".cmdb-stale123"), filepath.Join(path, benchDirName("beta"), ".cmdb-stale456")}
	for _, f := range stale {
		if err := os.WriteFile(f, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	beta1, err := os.ReadFile(runFile(path, "beta", 1))
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Five removals: alpha's damaged run and its directory, beta's
	// damaged run 2, and the two temp files.
	if n != 5 {
		t.Errorf("Compact made %d changes, want 5", n)
	}
	if db.Skipped() != 2 {
		t.Errorf("Compact found %d damaged runs, want 2", db.Skipped())
	}
	for _, f := range append(stale, filepath.Join(path, benchDirName("alpha")), runFile(path, "beta", 2)) {
		if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived Compact: %v", f, err)
		}
	}
	if after, err := os.ReadFile(runFile(path, "beta", 1)); err != nil || !bytes.Equal(after, beta1) {
		t.Errorf("Compact rewrote a healthy run file (err %v)", err)
	}
	// The rewritten store is healthy: the damaged record is gone and a
	// fresh open skips nothing.
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	re.Get("beta", 1, "MLPX")
	if re.Skipped() != 0 {
		t.Errorf("Skipped = %d after Compact, want 0", re.Skipped())
	}
	if n := re.Len(); n != 1 {
		t.Errorf("Len = %d after Compact, want 1 (beta/1)", n)
	}
	if _, ok := re.Get("beta", 1, "MLPX"); !ok {
		t.Error("healthy run lost by Compact")
	}

	mem, _ := Open("")
	if _, err := mem.Compact(); err == nil {
		t.Error("Compact of in-memory store should error")
	}
}

// TestShardCompactKeepsUnreadableFiles: Compact removes only files it
// read and found damaged. A run file the OS cannot open (here a
// dangling symlink, as EACCES or EMFILE would leave it) and a run file
// that decodes but is misnamed stay on disk, still counted in Skipped;
// a run file that was unreadable only while Compact ran reads again
// once it is back.
func TestShardCompactKeepsUnreadableFiles(t *testing.T) {
	path, db := shardedStore(t, "alpha", "beta")
	if err := db.Put(mediumRecord("beta", 2)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	gone := filepath.Join(t.TempDir(), "gone")
	ghostRun := filepath.Join(path, benchDirName("alpha"), runFileName(5, "MLPX"))
	if err := os.Symlink(gone, ghostRun); err != nil {
		t.Skip("no symlinks:", err)
	}
	beta1, err := os.ReadFile(runFile(path, "beta", 1))
	if err != nil {
		t.Fatal(err)
	}
	misnamed := runFile(path, "beta", 7)
	if err := os.WriteFile(misnamed, beta1, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Skipped() != 2 {
		t.Fatalf("Skipped = %d at Open, want 2 (one unopenable, one misnamed)", db.Skipped())
	}
	// beta/1 becomes unopenable after Open, while Compact loads it.
	if err := os.Remove(runFile(path, "beta", 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(gone, runFile(path, "beta", 1)); err != nil {
		t.Fatal(err)
	}
	n, err := db.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if n != 0 {
		t.Errorf("Compact made %d changes, want 0", n)
	}
	for _, f := range []string{ghostRun, misnamed, runFile(path, "beta", 1)} {
		if _, err := os.Lstat(f); err != nil {
			t.Errorf("Compact removed %s, which it could not read: %v", f, err)
		}
	}

	if err := os.Remove(runFile(path, "beta", 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runFile(path, "beta", 1), beta1, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := re.Get("beta", 1, "MLPX"); !ok || !sameRecord(got, mediumRecord("beta", 1)) {
		t.Error("a run unreadable during Compact did not come back")
	}
}

// TestShardChaosConcurrentEvictionWriteback hammers a budgeted store
// with mixed concurrent traffic while the writeback goroutine runs,
// then verifies nothing was lost. Primarily a race-detector workout.
func TestShardChaosConcurrentEvictionWriteback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.SetMemBudget(3 * 200 * bytesPerSample * 2) // ~two shards resident
	stop := db.StartWriteback(2 * time.Millisecond)
	defer stop()

	const workers, runs = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bench := fmt.Sprintf("bench-%d", w%4)
			for i := 1; i <= runs; i++ {
				if err := db.Put(mediumRecord(bench, w*100+i)); err != nil {
					t.Error(err)
				}
				db.Get(bench, w*100+i, "MLPX")
				db.Select(Query{Benchmark: bench})
				if i%5 == 0 {
					db.Summarize()
					db.ShardStats()
				}
			}
		}(w)
	}
	wg.Wait()
	stop()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Len(), workers*runs; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	for w := 0; w < workers; w++ {
		bench := fmt.Sprintf("bench-%d", w%4)
		for i := 1; i <= runs; i++ {
			if _, ok := re.Get(bench, w*100+i, "MLPX"); !ok {
				t.Fatalf("record %s/%d lost", bench, w*100+i)
			}
		}
	}
	if re.Skipped() != 0 {
		t.Errorf("Skipped = %d, want 0", re.Skipped())
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"123", 123, false},
		{"64k", 64 << 10, false},
		{"64KiB", 64 << 10, false},
		{"100KB", 100_000, false},
		{"1.5MiB", 3 << 19, false},
		{"2m", 2 << 20, false},
		{"256MB", 256_000_000, false},
		{"1GiB", 1 << 30, false},
		{"2gb", 2_000_000_000, false},
		{" 8 MiB ", 8 << 20, false},
		{"", 0, true},
		{"x", 0, true},
		{"-5", 0, true},
		{"MiB", 0, true},
		// Exact integers up to the int64 limit; nothing beyond it.
		{"9223372036854775807", math.MaxInt64, false},
		{"9223372036854775808", 0, true},
		{"8589934591GiB", 8589934591 << 30, false},
		{"8589934592GiB", 0, true},
		{"1e3", 1000, false},
		{"1e30", 0, true},
		// Non-finite values.
		{"nan", 0, true},
		{"inf", 0, true},
		{"-inf", 0, true},
		{"-0.5", 0, true},
		// Only the documented suffixes, matched exactly.
		{"1kbb", 0, true},
		{"5mk", 0, true},
		{"100b", 0, true},
		{"2gib2", 0, true},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseByteSize(%q) error = %v, want error=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// FuzzParseByteSize: whatever the input, a nil error means a
// non-negative size, and a plain in-range integer parses to itself.
func FuzzParseByteSize(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseByteSize(s)
		if err == nil && n < 0 {
			t.Fatalf("ParseByteSize(%q) = %d with a nil error", s, n)
		}
		if want, perr := strconv.ParseInt(s, 10, 64); perr == nil && want >= 0 && (err != nil || n != want) {
			t.Fatalf("ParseByteSize(%q) = %d, %v; want %d", s, n, err, want)
		}
	})
}
