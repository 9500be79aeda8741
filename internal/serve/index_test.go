package serve

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"counterminer/internal/collector"
	"counterminer/internal/fingerprint"
	"counterminer/internal/sim"
	"counterminer/internal/store"
	"counterminer/pkg/client"
)

// storeIndex is a fresh index filled from every run in db — what the
// live index must equal once no job is writing.
func storeIndex(db *store.DB) *fingerprint.Index {
	var all []fingerprint.Entry
	db.ForEachRun(func(rec store.Record) bool {
		all = append(all, RunEntry(rec))
		return true
	})
	ix := fingerprint.NewIndex()
	ix.Fill(all)
	return ix
}

// TestIndexMatchesStoreAfterMixedLoad: once no job is writing, every
// stored run has exactly one index entry, equal to RunEntry of its
// current record, so the live index version equals a fresh rebuild
// from the store. The mix covers every way a run reaches the store —
// sequential analyses, a co-located pair, a batch — plus a fingerprint
// job, which persists nothing, and concurrent analyses with the same
// benchmark and seed but different events, which write the same run
// keys with different series.
func TestIndexMatchesStoreAfterMixedLoad(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueDepth: 16, StorePath: filepath.Join(t.TempDir(), "runs.db")})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	eventsA := []string{"ICACHE.*", "L2_RQSTS.*"}
	eventsB := []string{"BR_INST_RETIRED.*", "ICACHE.*"}
	req := func(bench string, seed int64, events []string) client.AnalyzeRequest {
		return client.AnalyzeRequest{Benchmark: bench, Events: events, Runs: 1, Trees: 2, SkipEIR: true, Seed: seed}
	}
	// analyze runs one request through the serving machinery; it is
	// safe to call from any goroutine.
	analyze := func(r client.AnalyzeRequest) error {
		job, herr := s.resolve(r)
		if herr != nil {
			return errors.New(herr.msg)
		}
		_, err := s.Execute(context.Background(), job)
		return err
	}

	for i, bench := range []string{"wordcount", "sort", "pagerank"} {
		if err := analyze(req(bench, int64(1+i), eventsA)); err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
	}
	colocated := req("wordcount", 4, eventsA)
	colocated.Colocate = "sort"
	if err := analyze(colocated); err != nil {
		t.Fatalf("co-located pair: %v", err)
	}
	resp, body := postBatch(t, ts.URL, batchBody(t, req("kmeans", 5, eventsA), req("sort", 5, eventsB), req("wordcount", 1, eventsB)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, body)
	}
	entries := s.fpIndex.Len()
	resp, body = postClassify(t, ts.URL, `{"benchmark":"sort","runs":1,"seed":9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status = %d: %s", resp.StatusCode, body)
	}
	if s.fpIndex.Len() != entries {
		t.Fatalf("a fingerprint job changed the index: %d -> %d entries", entries, s.fpIndex.Len())
	}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for _, events := range [][]string{eventsA, eventsB} {
			wg.Add(1)
			go func(events []string) {
				defer wg.Done()
				if err := analyze(req("wordcount", int64(100+round), events)); err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}(events)
		}
		wg.Wait()
	}

	want := storeIndex(s.db)
	if n, stored := s.fpIndex.Len(), want.Len(); n != stored {
		t.Errorf("index holds %d entries, store %d runs", n, stored)
	}
	if got := s.fpIndex.Version(); got != want.Version() {
		t.Errorf("index version %s, a rebuild from the store gives %s", got, want.Version())
	}
}

// TestIndexUpsertsOnlyPersistedRuns: index maintenance after an
// analysis touches the runs it persisted, not the runs stored. A store
// of 300 wordcount runs is embedded once at startup, and one stored
// run's entry is then overwritten with a planted vector no embedding
// produces. An analysis that persists two more wordcount runs must add
// their two entries and leave the planted one alone; re-embedding the
// benchmark's stored runs would overwrite it.
func TestIndexUpsertsOnlyPersistedRuns(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "runs.db")
	db, err := store.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	coll := collector.New(sim.NewCatalogue())
	events, err := coll.Catalogue().Select([]string{"ICACHE.*", "L2_RQSTS.*"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.ProfileByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	run, err := coll.Collect(p, 1, collector.MLPX, events)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string][]float64)
	for _, ev := range run.Series.Events() {
		series[ev] = run.Series.MustGet(ev).Values
	}
	// One collected run stored under 300 run IDs: what the index costs
	// depends on how many runs are stored, not on what they hold.
	stored := func(runID int) store.Record {
		return store.Record{
			Meta:   store.RunMeta{Benchmark: "wordcount", RunID: runID, Mode: run.Mode.String()},
			IPC:    run.IPC,
			Series: series,
		}
	}
	for runID := 1; runID <= 300; runID++ {
		if err := db.Put(stored(runID)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 1, StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s.queue.Drain()
	check := func(when string, entries int) {
		t.Helper()
		fp := s.snapshot().Fingerprint
		if fp.IndexRebuilds != 1 || fp.IndexEntries != entries {
			t.Fatalf("%s: index_rebuilds %d, index_entries %d; want 1, %d",
				when, fp.IndexRebuilds, fp.IndexEntries, entries)
		}
	}
	check("at startup", 300)
	planted := RunEntry(stored(1))
	planted.Vec = make([]float64, fingerprint.Dim)
	planted.Vec[0] = 1
	s.fpIndex.Upsert(planted)

	job, herr := s.resolve(client.AnalyzeRequest{
		Benchmark: "wordcount", Events: []string{"ICACHE.*", "L2_RQSTS.*"},
		Runs: 2, Trees: 2, SkipEIR: true, Seed: 7777,
	})
	if herr != nil {
		t.Fatal(herr.msg)
	}
	if _, err := s.Execute(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	check("after one analysis", 302)
	want := storeIndex(s.db)
	want.Upsert(planted)
	if got := s.fpIndex.Version(); got != want.Version() {
		t.Errorf("index version %s, want %s (the store's runs with the planted entry kept): the analysis rewrote entries of runs it did not persist",
			got, want.Version())
	}
}

// TestIndexingSinkLastWriteWins: persists of the same run keys with
// different series race, as two analyses with the same benchmark and
// seed but different events do. The record the store keeps for each
// key must be the one whose embedding the index holds.
func TestIndexingSinkLastWriteWins(t *testing.T) {
	s, err := New(Config{Workers: 1, StorePath: filepath.Join(t.TempDir(), "runs.db")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.queue.Drain()
	rng := rand.New(rand.NewSource(1))
	recs := make([]store.Record, 2)
	for i := range recs {
		ipc := make([]float64, 32)
		vals := make([]float64, 32)
		for j := range ipc {
			ipc[j] = 1 + rng.Float64()
			vals[j] = 1e6 * (1 + rng.Float64())
		}
		recs[i] = store.Record{
			Meta:   store.RunMeta{Benchmark: "wordcount", Mode: "MLPX"},
			IPC:    ipc,
			Series: map[string][]float64{"ICACHE.MISSES": vals},
		}
	}
	sink := indexingSink{s}
	const runs, rounds = 50, 200
	for round := 0; round < rounds; round++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, rec := range recs {
			wg.Add(1)
			go func(rec store.Record) {
				defer wg.Done()
				<-start
				for id := 1; id <= runs; id++ {
					rec.Meta.RunID = id
					if err := sink.Put(rec); err != nil {
						t.Error(err)
					}
				}
			}(rec)
		}
		close(start)
		wg.Wait()
		if got, want := s.fpIndex.Version(), storeIndex(s.db).Version(); got != want {
			t.Fatalf("round %d: index version %s, the stored records give %s", round, got, want)
		}
	}
}
