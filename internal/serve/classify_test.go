package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"counterminer/internal/collector"
	"counterminer/internal/sim"
	"counterminer/internal/store"
	"counterminer/pkg/client"
)

// --- config validation (negative knobs must be typed errors) ---------------

func TestConfigRejectsNegativeKnobs(t *testing.T) {
	cases := []Config{
		{StoreMemBytes: -1},
	}
	for _, cfg := range cases {
		s, err := New(cfg)
		if err == nil {
			t.Fatalf("New(%+v) accepted a negative knob", cfg)
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("New(%+v) error = %v, want ErrConfig", cfg, err)
		}
		if s != nil {
			t.Errorf("New(%+v) returned a server alongside the error", cfg)
		}
	}
	// Zero remains the documented "unlimited" memory budget.
	s, err := New(Config{StoreMemBytes: 0})
	if err != nil {
		t.Fatalf("zero-valued knobs rejected: %v", err)
	}
	s.queue.Drain()
}

// --- /classify --------------------------------------------------------------

// seedStore collects n MLPX runs per benchmark over the full catalogue
// and persists them, returning the store path.
func seedStore(t *testing.T, benches []string, n int) string {
	return seedStoreEvents(t, benches, n, nil)
}

// seedStoreEvents is seedStore with an explicit event set (nil means
// the full catalogue).
func seedStoreEvents(t *testing.T, benches []string, n int, events []string) string {
	t.Helper()
	dbPath := filepath.Join(t.TempDir(), "runs.db")
	db, err := store.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	coll := collector.New(sim.NewCatalogue())
	if events == nil {
		events = coll.Catalogue().Events()
	}
	for _, bench := range benches {
		p, err := sim.ProfileByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for runID := 1; runID <= n; runID++ {
			run, err := coll.Collect(p, runID, collector.MLPX, events)
			if err != nil {
				t.Fatal(err)
			}
			series := make(map[string][]float64)
			for _, ev := range run.Series.Events() {
				series[ev] = run.Series.MustGet(ev).Values
			}
			rec := store.Record{
				Meta: store.RunMeta{
					Benchmark: bench, RunID: runID, Mode: run.Mode.String(),
					Events: run.Series.Events(), Intervals: len(run.IPC),
				},
				IPC:    run.IPC,
				Series: series,
			}
			if err := db.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return dbPath
}

func postClassify(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/classify", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestClassifyWithoutStoreIs503NoIndex(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	resp, body := postClassify(t, ts.URL, `{"benchmark":"wordcount"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error != "no_index" {
		t.Fatalf("body = %s, want code no_index", body)
	}
	if s.snapshot().Fingerprint.ClassifyNoIndex != 1 {
		t.Error("classify_no_index counter not incremented")
	}
}

func TestClassifyValidation(t *testing.T) {
	dbPath := seedStore(t, []string{"wordcount"}, 1)
	s, err := New(Config{Workers: 1, StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	// An inline profile whose counters overflow the embedding is
	// refused, never classified into a verdict that cannot be encoded.
	extreme := client.ClassifyRequest{Events: []string{"A", "B", "C"}}
	for i := 0; i < 64; i++ {
		v := 1e308
		if i%2 == 1 {
			v = -v
		}
		extreme.X = append(extreme.X, []float64{v, 1, 1})
		extreme.IPC = append(extreme.IPC, 1e308)
	}
	extremeBody, err := json.Marshal(extreme)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		body   string
		status int
		code   string
	}{
		{string(extremeBody), http.StatusBadRequest, "bad_request"},
		{`{not json`, http.StatusBadRequest, "bad_request"},
		{`{}`, http.StatusBadRequest, "bad_request"},
		{`{"benchmark":"nope"}`, http.StatusNotFound, "unknown_benchmark"},
		{`{"benchmark":"wordcount","x":[[1,2]]}`, http.StatusBadRequest, "bad_request"},
		{`{"benchmark":"wordcount","runs":-1}`, http.StatusBadRequest, "bad_request"},
		{`{"benchmark":"wordcount","top_k":-1}`, http.StatusBadRequest, "bad_request"},
		{`{"events":["A"],"x":[[1],[2]],"ipc":[1]}`, http.StatusBadRequest, "bad_request"},
	}
	// Every rejection counts in bad_requests, as on /analyze.
	for _, tc := range cases {
		before := s.snapshot().Requests.BadRequests
		resp, body := postClassify(t, ts.URL, tc.body)
		if got := s.snapshot().Requests.BadRequests - before; got != 1 {
			t.Errorf("%s: bad_requests rose by %d, want 1", tc.body, got)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.body, resp.StatusCode, tc.status, body)
			continue
		}
		var er client.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error != tc.code {
			t.Errorf("%s: body = %s, want code %s", tc.body, body, tc.code)
		}
	}
	resp, _ := postClassify(t, ts.URL, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body status = %d, want 400", resp.StatusCode)
	}
}

// TestClassifyStoredBenchmark is the subsystem's core contract: a
// benchmark with persisted runs classifies back to itself with high
// confidence, and the verdict carries the suite and index identity.
// TestClassifyStoreEventVocabulary: a store built from event-filtered
// analyses still classifies. The benchmark probe must be collected
// over the store's shared event vocabulary, not the full catalogue —
// feature-hashed embeddings are only comparable over comparable event
// sets, so a full-catalogue probe against a 13-event index would flag
// every stored workload as an anomaly.
func TestClassifyStoreEventVocabulary(t *testing.T) {
	cat := sim.NewCatalogue()
	events, err := cat.Select([]string{"BR_*", "L2_RQSTS.*", "ICACHE.MISSES", "ISF"})
	if err != nil {
		t.Fatal(err)
	}
	dbPath := seedStoreEvents(t, []string{"wordcount", "sort", "kmeans"}, 2, events)
	s, err := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 8, StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	if vocab := StoreEventVocabulary(s.db); len(vocab) != len(events) {
		t.Fatalf("store vocabulary has %d events, want %d", len(vocab), len(events))
	}
	resp, body := postClassify(t, ts.URL, `{"benchmark":"wordcount"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var cr client.ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	cls := cr.Classification
	if cls.Matches[0].Benchmark != "wordcount" {
		t.Errorf("nearest = %q, want wordcount (%+v)", cls.Matches[0].Benchmark, cls.Matches)
	}
	if cls.Anomaly {
		t.Errorf("stored benchmark flagged anomalous over its own vocabulary (score %v)", cls.AnomalyScore)
	}
	if cls.Confidence < 0.9 {
		t.Errorf("confidence = %v, want >= 0.9", cls.Confidence)
	}

	// A store that disagrees on events has no vocabulary: the probe
	// falls back to the full catalogue.
	db, err := store.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	rec := store.Record{
		Meta: store.RunMeta{
			Benchmark: "pagerank", RunID: 9, Mode: "MLPX",
			Events: []string{"ISF"}, Intervals: 3,
		},
		IPC:    []float64{1, 1, 1},
		Series: map[string][]float64{"ISF": {1, 2, 3}},
	}
	if err := db.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Workers: 1, StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.queue.Drain()
	if vocab := StoreEventVocabulary(s2.db); vocab != nil {
		t.Errorf("heterogeneous store produced vocabulary %v, want nil", vocab)
	}
}

func TestClassifyStoredBenchmark(t *testing.T) {
	dbPath := seedStore(t, []string{"wordcount", "sort", "DataCaching"}, 2)
	s, err := New(Config{Workers: 2, StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	resp, body := postClassify(t, ts.URL, `{"benchmark":"wordcount","runs":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var cr client.ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	cls := cr.Classification
	if cls == nil || len(cls.Matches) == 0 {
		t.Fatalf("no classification: %s", body)
	}
	if cls.Matches[0].Benchmark != "wordcount" {
		t.Errorf("nearest = %q, want wordcount (matches %+v)", cls.Matches[0].Benchmark, cls.Matches)
	}
	if cls.Confidence < 0.9 {
		t.Errorf("confidence = %v, want >= 0.9", cls.Confidence)
	}
	if cls.Anomaly {
		t.Errorf("stored benchmark flagged anomalous (score %v)", cls.AnomalyScore)
	}
	if cls.Matches[0].Suite != "HiBench" {
		t.Errorf("suite = %q, want HiBench", cls.Matches[0].Suite)
	}
	if len(cls.Suites) == 0 || cls.Suites[0].Suite != "HiBench" {
		t.Errorf("suite confidence = %+v, want HiBench first", cls.Suites)
	}
	if cls.IndexVersion == "" || cls.IndexVersion == "empty" || cls.Entries != 6 || cls.Clusters != 3 {
		t.Errorf("index identity = %q/%d/%d, want hash/6/3", cls.IndexVersion, cls.Entries, cls.Clusters)
	}

	// An identical request is a cache hit under the same index version.
	resp, body = postClassify(t, ts.URL, `{"benchmark":"wordcount","runs":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", resp.StatusCode, body)
	}
	var cr2 client.ClassifyResponse
	if err := json.Unmarshal(body, &cr2); err != nil {
		t.Fatal(err)
	}
	if !cr2.Cached || cr2.Key != cr.Key {
		t.Errorf("repeat = cached %v key %q, want cached hit on %q", cr2.Cached, cr2.Key, cr.Key)
	}

	snap := s.snapshot()
	fp := snap.Fingerprint
	if fp.ClassifyRequests != 2 || fp.Classified != 1 || fp.ClassifyCacheHits != 1 || fp.ClassifyCacheMisses != 1 {
		t.Errorf("fingerprint counters = %+v", fp)
	}
	if fp.Embeds != 1 || fp.EmbedLatency.Count != 1 || fp.ClassifyLatency.Count != 1 {
		t.Errorf("latency accounting = %+v", fp)
	}
}

// TestClassifyInlineProfileAndAnomaly: an inline raw profile of a
// stored workload classifies to it; the same profile with saturated,
// drifted counters is flagged anomalous.
func TestClassifyInlineProfileAndAnomaly(t *testing.T) {
	dbPath := seedStore(t, []string{"wordcount", "kmeans"}, 2)
	s, err := New(Config{Workers: 1, StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	// Build the inline matrix from a fresh collected run (a runID the
	// store has never seen).
	coll := collector.New(sim.NewCatalogue())
	p, _ := sim.ProfileByName("wordcount")
	run, err := coll.Collect(p, 99, collector.MLPX, coll.Catalogue().Events())
	if err != nil {
		t.Fatal(err)
	}
	events := run.Series.Events()
	x := make([][]float64, len(run.IPC))
	for i := range x {
		row := make([]float64, len(events))
		for j, ev := range events {
			row[j] = run.Series.MustGet(ev).Values[i]
		}
		x[i] = row
	}
	req := client.ClassifyRequest{Events: events, X: x, IPC: run.IPC}
	body, _ := json.Marshal(req)
	resp, rb := postClassify(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline status = %d: %s", resp.StatusCode, rb)
	}
	var cr client.ClassifyResponse
	if err := json.Unmarshal(rb, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Classification.Matches[0].Benchmark != "wordcount" || cr.Classification.Anomaly {
		t.Errorf("inline verdict = %+v", cr.Classification)
	}

	// Saturate and drift every counter: the profile stops behaving like
	// any stored workload.
	for i := range x {
		for j := range x[i] {
			x[i][j] = x[i][j]*50 + float64(i*i)*1e3
		}
	}
	for i := range run.IPC {
		run.IPC[i] = 0.01
	}
	body, _ = json.Marshal(client.ClassifyRequest{Events: events, X: x, IPC: run.IPC})
	resp, rb = postClassify(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drifted status = %d: %s", resp.StatusCode, rb)
	}
	var ar client.ClassifyResponse
	if err := json.Unmarshal(rb, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Classification.Anomaly || ar.Classification.AnomalyScore <= 1 {
		t.Errorf("drifted profile not anomalous: %+v", ar.Classification)
	}
	if s.snapshot().Fingerprint.ClassifyAnomalies != 1 {
		t.Error("classify_anomalies counter not incremented")
	}
}

// TestClassifyIndexVersionInvalidatesCache: a persisting analysis
// re-syncs the index, which changes its version, which orphans every
// cached classification — stale verdicts never leak across rebuilds.
func TestClassifyIndexVersionInvalidatesCache(t *testing.T) {
	dbPath := seedStore(t, []string{"wordcount", "sort"}, 1)
	s, err := New(Config{Workers: 1, StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	classify := func() client.ClassifyResponse {
		resp, body := postClassify(t, ts.URL, `{"benchmark":"wordcount","runs":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify status = %d: %s", resp.StatusCode, body)
		}
		var cr client.ClassifyResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}
	first := classify()
	if first.Cached {
		t.Fatal("first classification served from an empty cache")
	}
	versionBefore := first.Classification.IndexVersion
	entriesBefore := first.Classification.Entries

	// A persisting analysis adds runs for a new benchmark and re-syncs
	// the index.
	ana := `{"benchmark":"pagerank","runs":1,"trees":4,"skip_eir":true,"events":["ICACHE.*","L2_RQSTS.*","BR_INST_RETIRED.*"]}`
	resp, body := postAnalyze(t, ts.URL, ana)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}

	second := classify()
	if second.Cached {
		t.Error("classification after an index re-sync must not be served from the old version's cache")
	}
	if second.Key == first.Key {
		t.Error("classify key unchanged across index versions")
	}
	if second.Classification.IndexVersion == versionBefore {
		t.Error("index version unchanged after a persisting analysis")
	}
	if second.Classification.Entries <= entriesBefore {
		t.Errorf("index entries = %d after persist, want > %d", second.Classification.Entries, entriesBefore)
	}

	// The same version now hits the cache again.
	third := classify()
	if !third.Cached || third.Key != second.Key {
		t.Errorf("third classify = cached %v key %q, want hit on %q", third.Cached, third.Key, second.Key)
	}
}
