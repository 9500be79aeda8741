package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	counterminer "counterminer"
	"counterminer/internal/clean"
	"counterminer/pkg/client"
)

// --- content-address separation --------------------------------------------

func TestCleanerKeyCanonicalization(t *testing.T) {
	base := Key("wordcount", "", nil, counterminer.Options{})
	explicit := counterminer.Options{}
	explicit.CleanOptions.Cleaner = clean.DefaultCleaner
	if got := Key("wordcount", "", nil, explicit); got != base {
		t.Error("empty cleaner and explicit default name must collide")
	}
	bayes := counterminer.Options{}
	bayes.CleanOptions.Cleaner = "bayes"
	if got := Key("wordcount", "", nil, bayes); got == base {
		t.Error("distinct cleaners must never share a content address")
	}
}

// TestCleanerCacheKeySeparation drives two identical profiles through
// the serving layer under the two cleaners and proves they never share
// a result: distinct executions, distinct LRU entries, and repeat
// requests hitting only their own cleaner's cache line.
func TestCleanerCacheKeySeparation(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 2, QueueDepth: 4, CacheSize: 8})
	close(g.release) // executions complete immediately
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	post := func(body string) {
		t.Helper()
		resp, b := postAnalyze(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", body, resp.StatusCode, b)
		}
	}
	post(`{"benchmark":"wordcount","skip_eir":true}`)
	post(`{"benchmark":"wordcount","skip_eir":true,"cleaner":"bayes"}`)
	if got := g.count.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (the bayes request must not ride the default's singleflight or cache)", got)
	}
	if got := s.cache.Len(); got != 2 {
		t.Fatalf("cache entries = %d, want 2 (one per cleaner)", got)
	}

	// Repeats — including the explicit default name, which canonicalizes
	// onto the empty-cleaner request — are pure cache hits.
	post(`{"benchmark":"wordcount","skip_eir":true,"cleaner":"threshold-knn"}`)
	post(`{"benchmark":"wordcount","skip_eir":true,"cleaner":"bayes"}`)
	if got := g.count.Load(); got != 2 {
		t.Fatalf("executions after repeats = %d, want 2", got)
	}
	snap := s.metrics.SnapshotFrom(gauges{})
	if snap.Requests.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2", snap.Requests.CacheHits)
	}
	if snap.Requests.SingleflightShared != 0 {
		t.Errorf("singleflight shared = %d, want 0", snap.Requests.SingleflightShared)
	}
}

// --- HTTP rejection --------------------------------------------------------

func TestUnknownCleanerRejected404(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 2, CacheSize: 2})
	close(g.release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	resp, body := postAnalyze(t, ts.URL, `{"benchmark":"wordcount","cleaner":"nope"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404: %s", resp.StatusCode, body)
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error != "unknown_cleaner" {
		t.Errorf("error code = %q, want unknown_cleaner", er.Error)
	}
	for _, want := range []string{`"nope"`, "bayes", "threshold-knn"} {
		if !strings.Contains(er.Message, want) {
			t.Errorf("message %q missing %q", er.Message, want)
		}
	}
	if got := g.count.Load(); got != 0 {
		t.Errorf("executions = %d, want 0 (rejected before admission)", got)
	}
}

func TestServerRejectsUnknownDefaultCleaner(t *testing.T) {
	if _, err := New(Config{DefaultCleaner: "nope"}); err == nil {
		t.Fatal("New with unknown DefaultCleaner should fail")
	} else if !strings.Contains(err.Error(), "unknown cleaner") {
		t.Errorf("error = %v, want unknown-cleaner detail", err)
	}
}

// TestServerDefaultCleanerFlowsIntoKey proves the config-level default
// participates in the content address: a server defaulting to bayes
// must not serve results cached under the threshold cleaner.
func TestServerDefaultCleanerFlowsIntoKey(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 2, QueueDepth: 4, CacheSize: 8, DefaultCleaner: "bayes"})
	close(g.release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	for _, body := range []string{
		`{"benchmark":"wordcount","skip_eir":true}`,                   // → bayes via config default
		`{"benchmark":"wordcount","skip_eir":true,"cleaner":"bayes"}`, // same address
	} {
		resp, b := postAnalyze(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", body, resp.StatusCode, b)
		}
	}
	if got := g.count.Load(); got != 1 {
		t.Errorf("executions = %d, want 1 (default resolves to bayes before keying)", got)
	}
}

// --- per-cleaner metrics ---------------------------------------------------

func TestCleanerMetricsPreRegisteredAndObserved(t *testing.T) {
	m := NewMetrics()
	snap := m.SnapshotFrom(gauges{})
	names := clean.Names()
	if len(snap.Cleaners) != len(names) {
		t.Fatalf("cleaner series = %d, want %d (pre-registered registry)", len(snap.Cleaners), len(names))
	}
	for i, cc := range snap.Cleaners {
		if cc.Cleaner != names[i] {
			t.Errorf("cleaner %d = %q, want registry order %q", i, cc.Cleaner, names[i])
		}
		if cc.Analyses != 0 || cc.CleanLatency.Count != 0 {
			t.Errorf("cleaner %q not zeroed: %+v", cc.Cleaner, cc)
		}
	}

	m.ObserveAnalysis(&counterminer.Analysis{
		Cleaner:          "bayes",
		OutliersReplaced: 3,
		MissingFilled:    2,
		Stages: []counterminer.StageTiming{
			{Stage: counterminer.StageClean, Duration: 3 * time.Millisecond},
			{Stage: counterminer.StageRank, Duration: 90 * time.Millisecond},
		},
	}, nil)
	snap = m.SnapshotFrom(gauges{})
	var bayes *client.CleanerCounters
	for i := range snap.Cleaners {
		if snap.Cleaners[i].Cleaner == "bayes" {
			bayes = &snap.Cleaners[i]
		}
	}
	if bayes == nil {
		t.Fatal("bayes series missing")
	}
	if bayes.Analyses != 1 || bayes.OutliersReplaced != 3 || bayes.MissingFilled != 2 {
		t.Errorf("bayes counters = %+v", bayes)
	}
	if bayes.CleanLatency.Count != 1 {
		t.Errorf("bayes clean latency count = %d, want 1 (only the Clean stage feeds it)", bayes.CleanLatency.Count)
	}
}

// TestCleanerSurvivesJobWire proves the wire Job round-trips the
// cleaner name: Execute recomputes the content address locally, so a
// Job stripped of its cleaner would silently re-key onto the default.
func TestCleanerSurvivesJobWire(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.queue.Drain()
	j, herr := s.resolve(client.AnalyzeRequest{Benchmark: "wordcount", Cleaner: "bayes"})
	if herr != nil {
		t.Fatal(herr.msg)
	}
	if j.Cleaner != "bayes" {
		t.Fatalf("wire cleaner = %q, want bayes", j.Cleaner)
	}
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back Job
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.keyed().Key; got != j.Key {
		t.Errorf("re-dispatched job re-keyed: %s != %s", got, j.Key)
	}
}
