package store

import (
	"path/filepath"
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

func TestDelete(t *testing.T) {
	db, _ := Open("")
	db.Put(sampleRecord("wc", 1))
	if !db.Delete("wc", 1, "MLPX") {
		t.Error("Delete returned false for existing record")
	}
	if db.Delete("wc", 1, "MLPX") {
		t.Error("Delete returned true for missing record")
	}
	if db.Len() != 0 {
		t.Errorf("Len = %d after delete", db.Len())
	}
	// Second-level table is gone too: a fresh Put then Get must not
	// resurrect old series.
	rec := sampleRecord("wc", 1)
	delete(rec.Series, "B.EVENT")
	db.Put(rec)
	got, _ := db.Get("wc", 1, "MLPX")
	if _, ok := got.Series["B.EVENT"]; ok {
		t.Error("stale second-level data survived delete")
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
	if got := db.ListBenchmark("b"); len(got) != 2 {
		t.Errorf("ListBenchmark(b) = %d", len(got))
	}
}

func TestSeriesSet(t *testing.T) {
	db, _ := Open("")
	db.Put(sampleRecord("wc", 1))
	set, err := db.SeriesSet("wc", 1, "MLPX")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Errorf("set len = %d", set.Len())
	}
	// IPC must not appear as an event.
	if _, ok := set.Get("__ipc__"); ok {
		t.Error("IPC leaked into series set")
	}
	if _, err := db.SeriesSet("nope", 1, "MLPX"); err == nil {
		t.Error("missing record should error")
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
