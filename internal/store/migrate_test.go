package store

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// The v3 fixture under testdata/v3store was written by the v3 encoder
// (the last release before run files) from exactly the records below:
// wordcount with three runs, one carrying ±Inf, a NaN payload, -0, the
// smallest subnormal and the largest float; pagerank/1/MLPX Put, flushed,
// then replaced by a second version and flushed again; and sort/3/MLPX
// without IPC and with an empty series.

func fixtureSeries(seed, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(seed*1000+i) / 7
	}
	return v
}

func fixtureSpecial(n int) []float64 {
	v := fixtureSeries(5, n)
	copy(v, []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.SmallestNonzeroFloat64, math.MaxFloat64})
	return v
}

// fixtureWordcountShard is the fixture's .shard file for wordcount.
const fixtureWordcountShard = "wordcount-60a2407c.shard"

// v3FixtureRecords are the fixture's runs as they read back.
func v3FixtureRecords() []Record {
	return []Record{
		{Meta: RunMeta{Benchmark: "wordcount", RunID: 1, Mode: "MLPX"},
			IPC: fixtureSeries(1, 40), Series: map[string][]float64{"A.EVENT": fixtureSeries(2, 40), "B.EVENT": fixtureSeries(3, 40)}},
		{Meta: RunMeta{Benchmark: "wordcount", RunID: 2, Mode: "MLPX"},
			IPC: fixtureSeries(4, 40), Series: map[string][]float64{"A.EVENT": fixtureSpecial(40), "C.EVENT": fixtureSeries(6, 40)}},
		{Meta: RunMeta{Benchmark: "wordcount", RunID: 1, Mode: "OCOE"},
			IPC: fixtureSeries(7, 33), Series: map[string][]float64{"A.EVENT": fixtureSeries(8, 33)}},
		{Meta: RunMeta{Benchmark: "pagerank", RunID: 1, Mode: "MLPX"},
			IPC: fixtureSeries(13, 25), Series: map[string][]float64{"B.EVENT": fixtureSeries(14, 25), "D.EVENT": fixtureSeries(15, 25)}},
		{Meta: RunMeta{Benchmark: "sort", RunID: 3, Mode: "MLPX", Intervals: 17},
			Series: map[string][]float64{"X.EVENT": fixtureSeries(12, 17), "EMPTY.EVENT": nil}},
	}
}

// copyV3Fixture copies the committed v3 store into a temp directory.
func copyV3Fixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.db")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("testdata", "v3store")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(path, e.Name()), raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// sameBits reports whether two series hold the same float64 bit
// patterns (NaN payloads and signed zeros included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRecord reports whether got is want as Put stores it, bit for bit.
func sameRecord(got, want Record) bool {
	k := key(want.Meta.Benchmark, want.Meta.RunID, want.Meta.Mode)
	events := make([]string, 0, len(want.Series))
	for ev := range want.Series {
		events = append(events, ev)
	}
	sort.Strings(events)
	intervals := want.Meta.Intervals
	if intervals == 0 {
		intervals = len(want.IPC)
	}
	m := got.Meta
	if key(m.Benchmark, m.RunID, m.Mode) != k || m.SeriesTable != "series/"+k ||
		m.Intervals != intervals || !reflect.DeepEqual(m.Events, events) ||
		len(got.Series) != len(want.Series) || (got.IPC == nil) != (len(want.IPC) == 0) ||
		!sameBits(got.IPC, want.IPC) {
		return false
	}
	for ev, vals := range want.Series {
		g, ok := got.Series[ev]
		if !ok || !sameBits(g, vals) {
			return false
		}
	}
	return true
}

// checkV3Fixture verifies db holds exactly the fixture's runs.
func checkV3Fixture(t *testing.T, db *DB) {
	t.Helper()
	want := v3FixtureRecords()
	if n := db.Len(); n != len(want) {
		t.Errorf("Len = %d, want %d", n, len(want))
	}
	for _, rec := range want {
		m := rec.Meta
		got, ok := db.Get(m.Benchmark, m.RunID, m.Mode)
		if !ok {
			t.Errorf("run %s/%d/%s missing", m.Benchmark, m.RunID, m.Mode)
		} else if !sameRecord(got, rec) {
			t.Errorf("run %s/%d/%s reads differently: %+v", m.Benchmark, m.RunID, m.Mode, got.Meta)
		}
	}
}

// storeFiles maps every file under a store directory (relative path) to
// its bytes.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = raw
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// v3Files lists a store directory's .shard files.
func v3Files(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"+shardSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestMigrateV3FixtureConvertsOnFlush: a v3 store written by the v3
// encoder opens lazily, reads every run bit-identically before and
// after the converting flush, leaves no .shard file, and converts to
// exactly the bytes a fresh store writes for the same records.
func TestMigrateV3FixtureConvertsOnFlush(t *testing.T) {
	path := copyV3Fixture(t)
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.NeedsMigration() {
		t.Error("a v3 directory flagged as a legacy single file")
	}
	if st := db.ShardStats(); st.Shards != 3 || st.Dirty != 3 || st.Loads != 0 {
		t.Errorf("v3 open: %+v, want 3 unconverted, unloaded shards", st)
	}
	checkV3Fixture(t, db)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if files := v3Files(t, path); len(files) != 0 {
		t.Errorf(".shard files left after the converting flush: %v", files)
	}
	if st := db.ShardStats(); st.Dirty != 0 {
		t.Errorf("Dirty = %d after the converting flush", st.Dirty)
	}
	checkV3Fixture(t, db)

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	checkV3Fixture(t, re)
	if re.Skipped() != 0 || db.Skipped() != 0 {
		t.Errorf("Skipped = %d before and %d after reopening, want 0", db.Skipped(), re.Skipped())
	}

	fresh := filepath.Join(t.TempDir(), "fresh.db")
	fdb, err := Open(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range v3FixtureRecords() {
		if err := fdb.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fdb.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := storeFiles(t, path), storeFiles(t, fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("converted store differs from a directly built one: %d vs %d files", len(got), len(want))
	}
}

// TestMigrateV3InjectedErrorMidConversion: an I/O fault partway through
// converting a shard leaves every run readable — from its new run file
// or from the .shard file still beside it — in the live store and after
// a reopen; retrying after the fault clears finishes the conversion.
func TestMigrateV3InjectedErrorMidConversion(t *testing.T) {
	path := copyV3Fixture(t)
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Shards flush in benchmark order — pagerank, sort, wordcount — so
	// the fourth run write is wordcount's second run.
	calls := 0
	injected := errors.New("disk on fire")
	db.failFlush = func(string) error {
		if calls++; calls == 4 {
			return injected
		}
		return nil
	}
	if err := db.Flush(); !errors.Is(err, injected) {
		t.Fatalf("Flush error = %v, want injected fault", err)
	}
	if files := v3Files(t, path); len(files) != 1 {
		t.Fatalf(".shard files after the failed flush: %v, want wordcount's only", files)
	}
	if _, err := os.Stat(runFile(path, "wordcount", 1)); err != nil {
		t.Fatalf("wordcount's first run file missing after the partial conversion: %v", err)
	}
	checkV3Fixture(t, db)
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	checkV3Fixture(t, re)
	if re.Skipped() != 0 {
		t.Errorf("Skipped = %d after the partial conversion, want 0", re.Skipped())
	}

	db.failFlush = nil
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if files := v3Files(t, path); len(files) != 0 {
		t.Errorf(".shard files left after the retried flush: %v", files)
	}
	re, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	checkV3Fixture(t, re)
}

// TestMigrateV3CrashLeavesBothRunFileWins: a crash between writing a
// benchmark's run files and removing its .shard file leaves both; a
// reopen reads each run from its run file where one exists, and the
// next flush removes the stale .shard file.
func TestMigrateV3CrashLeavesBothRunFileWins(t *testing.T) {
	path := copyV3Fixture(t)
	shardPath := filepath.Join(path, fixtureWordcountShard)
	saved, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	newer := mediumRecord("wordcount", 1)
	if err := db.Put(newer); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// The crash: wordcount's .shard file survives its conversion.
	if err := os.WriteFile(shardPath, saved, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := re.Len(); n != 5 {
		t.Errorf("Len = %d, want 5", n)
	}
	got, ok := re.Get("wordcount", 1, "MLPX")
	if !ok || !sameRecord(got, newer) {
		t.Error("the .shard copy of wordcount/1/MLPX won over its run file")
	}
	for _, rec := range v3FixtureRecords()[1:] {
		m := rec.Meta
		if got, ok := re.Get(m.Benchmark, m.RunID, m.Mode); !ok || !sameRecord(got, rec) {
			t.Errorf("run %s/%d/%s lost beside the stale .shard file", m.Benchmark, m.RunID, m.Mode)
		}
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if files := v3Files(t, path); len(files) != 0 {
		t.Errorf("stale .shard file survived the next flush: %v", files)
	}
	if re.Skipped() != 0 {
		t.Errorf("Skipped = %d, want 0", re.Skipped())
	}
}

// TestMigrateV3EvictsUnderMemBudget: an unconverted v3 shard that has
// only been read stays evictable, so iterating a v3 store under a
// budget keeps one shard resident at a time, as it does for run files;
// the converting flush stays within the budget too, and a shard that
// was evicted before a Put converts with all of its runs.
func TestMigrateV3EvictsUnderMemBudget(t *testing.T) {
	path := copyV3Fixture(t)
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.SetMemBudget(1)
	want := v3FixtureRecords()
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i].Meta, want[j].Meta
		return key(a.Benchmark, a.RunID, a.Mode) < key(b.Benchmark, b.RunID, b.Mode)
	})
	i := 0
	db.ForEachRun(func(rec Record) bool {
		if st := db.ShardStats(); st.Loaded > 1 {
			t.Errorf("after %s: %d shards resident under a 1-byte budget", rec.Meta.SeriesTable, st.Loaded)
		}
		if i < len(want) && !sameRecord(rec, want[i]) {
			t.Errorf("run %d reads as %+v", i, rec.Meta)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Errorf("ForEachRun visited %d runs, want %d", i, len(want))
	}
	st := db.ShardStats()
	if st.Loaded > 1 || st.Loads != 3 || st.Evictions < 2 || st.Dirty != 3 {
		t.Errorf("after ForEachRun: %+v, want ≤1 loaded of 3 loads, ≥2 evictions, 3 unconverted", st)
	}
	db.SetMemBudget(1)
	if st := db.ShardStats(); st.Loaded != 0 || st.ResidentBytes != 0 {
		t.Errorf("read-only v3 shards pinned: %+v", st)
	}

	// wordcount is evicted; a Put reloads it and the flush converts it
	// whole.
	newer := mediumRecord("wordcount", 9)
	if err := db.Put(newer); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.ShardStats(); st.Loaded != 0 || st.ResidentBytes != 0 || st.Dirty != 0 {
		t.Errorf("after the converting flush: %+v, want every shard converted and evicted", st)
	}
	if files := v3Files(t, path); len(files) != 0 {
		t.Errorf(".shard files left after the converting flush: %v", files)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range want {
		m := rec.Meta
		if got, ok := re.Get(m.Benchmark, m.RunID, m.Mode); !ok || !sameRecord(got, rec) {
			t.Errorf("run %s/%d/%s lost or changed by the conversion", m.Benchmark, m.RunID, m.Mode)
		}
	}
	if n := re.Len(); n != len(want)+1 {
		t.Errorf("Len = %d, want %d", n, len(want)+1)
	}
	if got, ok := re.Get("wordcount", 9, "MLPX"); !ok || !sameRecord(got, newer) {
		t.Error("the run put into an evicted v3 shard was lost")
	}
	if re.Skipped() != 0 || db.Skipped() != 0 {
		t.Errorf("Skipped = %d live, %d reopened, want 0", db.Skipped(), re.Skipped())
	}
}

// TestMigrateV3UnreadableAtLoadKeepsShardFile: a .shard file the OS
// cannot open when its shard loads (descriptor exhaustion, say) loses
// its runs for this process only. The flush does not convert it, and
// neither the flush nor Compact removes it, so a reopen once it is
// readable again finds every run.
func TestMigrateV3UnreadableAtLoadKeepsShardFile(t *testing.T) {
	path := copyV3Fixture(t)
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Make wordcount's .shard file unopenable: a dangling symlink.
	shardPath := filepath.Join(path, fixtureWordcountShard)
	saved := filepath.Join(t.TempDir(), "saved.shard")
	if err := os.Rename(shardPath, saved); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(t.TempDir(), "gone"), shardPath); err != nil {
		t.Skip("no symlinks:", err)
	}
	if _, ok := db.Get("wordcount", 1, "MLPX"); ok {
		t.Fatal("a run read from an unopenable .shard file")
	}
	if db.Skipped() != 3 {
		t.Errorf("Skipped = %d, want wordcount's 3 runs", db.Skipped())
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Lstat(shardPath); err != nil {
		t.Fatalf("the unreadable .shard file was removed: %v", err)
	}
	if err := os.Remove(shardPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(saved, shardPath); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	checkV3Fixture(t, re)
	if re.Skipped() != 0 {
		t.Errorf("Skipped = %d after the file came back, want 0", re.Skipped())
	}
}
