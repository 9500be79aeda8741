package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func sampleRecord(benchmark string, runID int) Record {
	return Record{
		Meta: RunMeta{
			Benchmark: benchmark,
			RunID:     runID,
			Mode:      "MLPX",
			Events:    []string{"B.EVENT", "A.EVENT"},
		},
		IPC: []float64{1.1, 1.2, 1.3},
		Series: map[string][]float64{
			"A.EVENT": {1, 2, 3},
			"B.EVENT": {4, 5, 6},
		},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(sampleRecord("wordcount", 1)); err != nil {
		t.Fatal(err)
	}
	rec, ok := db.Get("wordcount", 1, "MLPX")
	if !ok {
		t.Fatal("record not found")
	}
	if rec.Meta.Benchmark != "wordcount" || rec.Meta.Intervals != 3 {
		t.Errorf("meta = %+v", rec.Meta)
	}
	// Events sorted in meta.
	if rec.Meta.Events[0] != "A.EVENT" {
		t.Errorf("events = %v", rec.Meta.Events)
	}
	if len(rec.IPC) != 3 || rec.IPC[0] != 1.1 {
		t.Errorf("IPC = %v", rec.IPC)
	}
	if rec.Series["A.EVENT"][2] != 3 {
		t.Errorf("series = %v", rec.Series)
	}
	if _, ok := db.Get("wordcount", 2, "MLPX"); ok {
		t.Error("missing record reported found")
	}
}

func TestPutValidation(t *testing.T) {
	db, _ := Open("")
	if err := db.Put(Record{}); err == nil {
		t.Error("record without benchmark should error")
	}
	if err := db.Put(Record{Meta: RunMeta{Benchmark: "x"}}); err == nil {
		t.Error("record without mode should error")
	}
	reserved := Record{Meta: RunMeta{Benchmark: "x", Mode: "MLPX"}, Series: map[string][]float64{ipcColumn: {1}}}
	if err := db.Put(reserved); err == nil {
		t.Error("record with an event named like the IPC column should error")
	}
	huge := Record{Meta: RunMeta{Benchmark: "x", Mode: "MLPX"}, Series: map[string][]float64{strings.Repeat("E", maxRunHead): {1}}}
	if err := db.Put(huge); err == nil {
		t.Error("record whose names overflow a run file's head should error")
	}
	if db.Len() != 0 {
		t.Errorf("Len = %d after refused Puts", db.Len())
	}
}

func TestGetReturnsCopies(t *testing.T) {
	db, _ := Open("")
	if err := db.Put(sampleRecord("wc", 1)); err != nil {
		t.Fatal(err)
	}
	rec, _ := db.Get("wc", 1, "MLPX")
	rec.Series["A.EVENT"][0] = 999
	rec.IPC[0] = 999
	rec2, _ := db.Get("wc", 1, "MLPX")
	if rec2.Series["A.EVENT"][0] == 999 || rec2.IPC[0] == 999 {
		t.Error("Get returned shared storage")
	}
}

func TestPutCopiesInput(t *testing.T) {
	db, _ := Open("")
	rec := sampleRecord("wc", 1)
	if err := db.Put(rec); err != nil {
		t.Fatal(err)
	}
	rec.Series["A.EVENT"][0] = 999
	got, _ := db.Get("wc", 1, "MLPX")
	if got.Series["A.EVENT"][0] == 999 {
		t.Error("Put retained caller's storage")
	}
}

func TestReplace(t *testing.T) {
	db, _ := Open("")
	db.Put(sampleRecord("wc", 1))
	rec := sampleRecord("wc", 1)
	rec.IPC = []float64{9}
	db.Put(rec)
	if db.Len() != 1 {
		t.Errorf("Len = %d after replace", db.Len())
	}
	got, _ := db.Get("wc", 1, "MLPX")
	if len(got.IPC) != 1 {
		t.Errorf("replacement not applied: %v", got.IPC)
	}
}

func TestListOrder(t *testing.T) {
	db, _ := Open("")
	db.Put(sampleRecord("b", 2))
	db.Put(sampleRecord("b", 1))
	db.Put(sampleRecord("a", 5))
	list := db.List()
	if len(list) != 3 {
		t.Fatalf("List = %d rows", len(list))
	}
	if list[0].Benchmark != "a" || list[1].RunID != 1 || list[2].RunID != 2 {
		t.Errorf("order: %+v", list)
	}
	if got := db.Select(Query{Benchmark: "b"}); len(got) != 2 {
		t.Errorf("Select(b) = %d", len(got))
	}
}

func TestFlushAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db.Put(sampleRecord("wordcount", 1))
	db.Put(sampleRecord("pagerank", 2))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify.
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 2 {
		t.Fatalf("reopened Len = %d", db2.Len())
	}
	rec, ok := db2.Get("wordcount", 1, "MLPX")
	if !ok || rec.Series["A.EVENT"][1] != 2 {
		t.Errorf("reopened record = %+v, ok=%v", rec, ok)
	}
}

// TestFlushReopenKeepsEveryBit: runs holding ±Inf, a NaN payload, −0,
// the smallest subnormal and the largest float, a run without IPC, an
// empty series and a replaced run all read back bit for bit before a
// flush, after it and after a reopen.
func TestFlushReopenKeepsEveryBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// pagerank/1/MLPX reaches disk once before it is replaced.
	replaced := Record{Meta: RunMeta{Benchmark: "pagerank", RunID: 1, Mode: "MLPX"},
		IPC: fixtureSeries(9, 30), Series: map[string][]float64{"A.EVENT": fixtureSeries(10, 30), "C.EVENT": fixtureSeries(11, 30)}}
	if err := db.Put(replaced); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []Record{
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
	for _, rec := range want {
		if err := db.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, db *DB) {
		t.Helper()
		if n := db.Len(); n != len(want) {
			t.Errorf("%s: Len = %d, want %d", when, n, len(want))
		}
		for _, rec := range want {
			m := rec.Meta
			if got, ok := db.Get(m.Benchmark, m.RunID, m.Mode); !ok || !sameRecord(got, rec) {
				t.Errorf("%s: run %s/%d/%s lost or changed (found %v)", when, m.Benchmark, m.RunID, m.Mode, ok)
			}
		}
	}
	check("before the flush", db)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after the flush", db)
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	check("after a reopen", re)
	if re.Skipped() != 0 {
		t.Errorf("Skipped = %d after the reopen, want 0", re.Skipped())
	}
}

func TestFlushInMemoryErrors(t *testing.T) {
	db, _ := Open("")
	db.Put(sampleRecord("wc", 1))
	if err := db.Flush(); err == nil {
		t.Error("Flush of in-memory store should error")
	}
}

func TestFlushNoopWhenClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.db")
	db, _ := Open(path)
	db.Put(sampleRecord("wc", 1))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Second flush with no changes must succeed quickly (no-op).
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissingFileCreatesEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 0 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestOpenCorruptFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.db")
	if err := writeFile(path, []byte("not a gob stream")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("corrupt file should error")
	}
}

// TestOpenRefusesOldFormats: a regular file at the store path (a v1/v2
// single-file store) and a v3 .shard file in the store directory each
// make Open fail with an error naming the file, and Open leaves every
// file as it was.
func TestOpenRefusesOldFormats(t *testing.T) {
	single := filepath.Join(t.TempDir(), "runs.db")
	dir, _ := shardedStore(t, "alpha")
	shard := filepath.Join(dir, "wordcount-60a2407c.shard")
	// A missing store with the single file an interrupted migrate set
	// aside beside it: the backup is the only copy of the runs.
	missing := filepath.Join(t.TempDir(), "runs.db")
	bak := missing + ".v2.bak"
	for _, f := range []string{single, shard, bak} {
		if err := os.WriteFile(f, []byte("\x1f\xff\x81\x03 a store before run files"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ name, path, file string }{
		{"single file", single, single},
		{"dir with .shard", dir, shard},
		{"missing path with .v2.bak", missing, bak},
	} {
		before := storeFiles(t, filepath.Dir(c.file))
		db, err := Open(c.path)
		if err == nil || db != nil || !strings.Contains(err.Error(), c.file) || !strings.Contains(err.Error(), "cmstore migrate") {
			t.Errorf("Open(%s) = %v, want an error naming %s and cmstore migrate", c.name, err, c.file)
		}
		if after := storeFiles(t, filepath.Dir(c.file)); !reflect.DeepEqual(after, before) {
			t.Errorf("Open(%s) changed %s or the files beside it", c.name, c.file)
		}
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Open of a missing path with a .v2.bak created %s (stat: %v)", missing, err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db, _ := Open("")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				db.Put(sampleRecord("bench", w*100+i))
				db.Get("bench", w*100+i, "MLPX")
				db.List()
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != 400 {
		t.Errorf("Len = %d, want 400", db.Len())
	}
}

func TestForEachRunDeterministicOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Insert out of order across benchmarks, runs, and modes.
	for _, ins := range []struct {
		bench string
		run   int
		mode  string
	}{
		{"sort", 2, "MLPX"}, {"join", 1, "OCOE"}, {"join", 1, "MLPX"},
		{"sort", 1, "MLPX"}, {"aggregation", 3, "MLPX"},
	} {
		rec := sampleRecord(ins.bench, ins.run)
		rec.Meta.Mode = ins.mode
		if err := db.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	db.ForEachRun(func(rec Record) bool {
		got = append(got, key(rec.Meta.Benchmark, rec.Meta.RunID, rec.Meta.Mode))
		if len(rec.Series) == 0 || rec.IPC == nil {
			t.Errorf("record %s missing series/IPC", key(rec.Meta.Benchmark, rec.Meta.RunID, rec.Meta.Mode))
		}
		return true
	})
	want := []string{"aggregation/3/MLPX", "join/1/MLPX", "join/1/OCOE", "sort/1/MLPX", "sort/2/MLPX"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order differs at %d: got %v, want %v", i, got, want)
		}
	}
	// Order survives a flush + reopen (shards load lazily behind the cursor).
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var reopened []string
	db2.ForEachRun(func(rec Record) bool {
		reopened = append(reopened, key(rec.Meta.Benchmark, rec.Meta.RunID, rec.Meta.Mode))
		return true
	})
	for i := range want {
		if reopened[i] != want[i] {
			t.Fatalf("reopened order differs: got %v, want %v", reopened, want)
		}
	}
	// Early stop.
	n := 0
	db.ForEachRun(func(Record) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d records, want 2", n)
	}
}
