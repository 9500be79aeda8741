package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
)

// TestJobWireGolden pins the cluster-wire Job encoding byte for byte:
// coordinators and workers of different builds must agree on it, and
// Execute recomputes the content address from exactly these fields.
// The jobs are built by field assignment so the test does not depend on
// how Job declares them.
func TestJobWireGolden(t *testing.T) {
	var minimal Job
	minimal.Key = "k1"
	minimal.Benchmark = "wordcount"
	minimal.PruneStep, minimal.TopK, minimal.MinRuns = 5, 3, 1

	var full Job
	full.Key, full.Kind = "k2", KindFingerprint
	full.Benchmark, full.Colocate = "sort", "kmeans"
	full.Events = []string{"a", "b"}
	full.Runs, full.Trees, full.PruneStep, full.TopK = 3, 80, 5, 3
	full.SkipEIR, full.Seed, full.MinRuns = true, 7, 1
	full.Cleaner = "bayes"

	for _, c := range []struct {
		job  Job
		want string
	}{
		{minimal, `{"key":"k1","benchmark":"wordcount","prune_step":5,"top_k":3,"min_runs":1}`},
		{full, `{"key":"k2","kind":"fingerprint","benchmark":"sort","colocate":"kmeans","events":["a","b"],"runs":3,"trees":80,"prune_step":5,"top_k":3,"skip_eir":true,"seed":7,"min_runs":1,"cleaner":"bayes"}`},
	} {
		got, err := json.Marshal(c.job)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("Job wire form\n got %s\nwant %s", got, c.want)
		}
		var back Job
		if err := json.Unmarshal([]byte(c.want), &back); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != c.want {
			t.Errorf("Job round trip\n got %s\nwant %s", again, c.want)
		}
	}
}

// metricsKeyPaths is every JSON key path of a fresh standalone server's
// /metrics document; "[]" marks a step into an array's elements. A
// scraper keys on these names, so adding, renaming or dropping one is a
// wire change.
var metricsKeyPaths = []string{
	"analyses", "analyses.canceled", "analyses.completed",
	"analyses.degraded", "analyses.events_quarantined", "analyses.failed",
	"analyses.retries", "analyses.runs_failed", "analyses.store_errors",
	"batch", "batch.batches", "batch.cache_hits", "batch.deduped",
	"batch.executed", "batch.job_errors", "batch.jobs", "batch.rejected",
	"cache", "cache.capacity", "cache.entries", "cache.evictions",
	"cleaners", "cleaners[].analyses", "cleaners[].clean_latency",
	"cleaners[].clean_latency.buckets",
	"cleaners[].clean_latency.buckets[].count",
	"cleaners[].clean_latency.buckets[].le_ms",
	"cleaners[].clean_latency.count", "cleaners[].clean_latency.stage",
	"cleaners[].clean_latency.sum_ms", "cleaners[].cleaner",
	"cleaners[].missing_filled", "cleaners[].outliers_replaced",
	"collector", "collector.generator_builds", "collector.memo_hits",
	"fingerprint", "fingerprint.classified",
	"fingerprint.classify_anomalies", "fingerprint.classify_cache_hits",
	"fingerprint.classify_cache_misses", "fingerprint.classify_errors",
	"fingerprint.classify_latency",
	"fingerprint.classify_latency.buckets",
	"fingerprint.classify_latency.buckets[].count",
	"fingerprint.classify_latency.buckets[].le_ms",
	"fingerprint.classify_latency.count",
	"fingerprint.classify_latency.stage",
	"fingerprint.classify_latency.sum_ms",
	"fingerprint.classify_no_index", "fingerprint.classify_requests",
	"fingerprint.classify_shared", "fingerprint.embed_errors",
	"fingerprint.embed_latency", "fingerprint.embed_latency.buckets",
	"fingerprint.embed_latency.buckets[].count",
	"fingerprint.embed_latency.buckets[].le_ms",
	"fingerprint.embed_latency.count", "fingerprint.embed_latency.stage",
	"fingerprint.embed_latency.sum_ms", "fingerprint.embeds",
	"fingerprint.index_clusters", "fingerprint.index_entries",
	"fingerprint.index_rebuilds", "fingerprint.index_reclusters",
	"queue", "queue.active", "queue.capacity", "queue.depth",
	"queue.executed",
	"requests", "requests.bad_requests", "requests.cache_hits",
	"requests.cache_misses", "requests.rejected_draining",
	"requests.rejected_queue_full", "requests.singleflight_shared",
	"requests.total",
	"stage_latency", "stage_latency[].buckets",
	"stage_latency[].buckets[].count", "stage_latency[].buckets[].le_ms",
	"stage_latency[].count", "stage_latency[].stage",
	"stage_latency[].sum_ms",
	"stream", "stream.events_sent", "stream.handles_canceled",
	"stream.handles_expired", "stream.handles_finished",
	"stream.handles_opened", "stream.late_completions",
	"stream.open_handles", "stream.queue_groups",
	"stream.retained_handles", "stream.ring_evictions",
	"stream.ring_rebuilds", "stream.subscribers",
	"uptime_seconds",
}

// TestMetricsKeyPathsGolden pins the /metrics document's key set.
func TestMetricsKeyPathsGolden(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.queue.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	collectKeyPaths("", doc, seen)
	got := make([]string, 0, len(seen))
	for p := range seen {
		got = append(got, p)
	}
	sort.Strings(got)
	if !slices.Equal(got, metricsKeyPaths) {
		t.Errorf("/metrics key paths changed\n got %q\nwant %q", got, metricsKeyPaths)
	}
}

// collectKeyPaths adds the dotted path of every object key under v to
// out, descending into array elements under a "[]" step.
func collectKeyPaths(prefix string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			collectKeyPaths(p, child, out)
		}
	case []any:
		for _, child := range v {
			collectKeyPaths(prefix+"[]", child, out)
		}
	}
}
