package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"counterminer/internal/store"
	"counterminer/pkg/client"
)

// syncBuffer is an io.Writer safe to read while run() writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// analyzeBody is a small, fast request: few events, EIR skipped.
// Distinct seeds yield distinct cache keys.
func analyzeBody(seed int64) string {
	return fmt.Sprintf(`{"benchmark":"wordcount","events":["ICACHE.*","L2_RQSTS.*","BR_INST_RETIRED.*"],"runs":2,"trees":20,"skip_eir":true,"seed":%d}`, seed)
}

// slowBody is a request heavy enough (full catalog + EIR pruning) to
// still be executing while the test lines up queue pressure behind it.
func slowBody(seed int64) string {
	return fmt.Sprintf(`{"benchmark":"sort","runs":2,"trees":20,"seed":%d}`, seed)
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /analyze: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, b
}

func metrics(t *testing.T, url string) client.Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap client.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return snap
}

// TestDaemonEndToEnd is the acceptance scenario from the issue: start
// counterminerd on an ephemeral port, prove singleflight + cache via
// two identical concurrent requests, prove typed 429 under overload,
// then SIGTERM while a request is in flight and verify the in-flight
// analysis completes, the store survives intact, and run() exits 0.
func TestDaemonEndToEnd(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "runs.db")
	var out, errOut syncBuffer
	exitc := make(chan int, 1)
	go func() {
		exitc <- run([]string{
			"-addr", "127.0.0.1:0",
			"-db", dbPath,
			"-workers", "1",
			"-queue", "1",
		}, &out, &errOut)
	}()

	addrRE := regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)
	var url string
	waitFor(t, "listening address", func() bool {
		m := addrRE.FindStringSubmatch(out.String())
		if m == nil {
			return false
		}
		url = "http://" + m[1]
		return true
	})

	// Part 1: two identical concurrent requests -> one pipeline
	// execution, visible in /metrics as one miss plus one shared.
	type result struct {
		status int
		resp   client.AnalyzeResponse
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, body := post(t, url, analyzeBody(7))
			var ar client.AnalyzeResponse
			if status == http.StatusOK {
				if err := json.Unmarshal(body, &ar); err != nil {
					t.Errorf("decode analyze response: %v", err)
				}
			} else {
				t.Errorf("concurrent POST: status %d, body %s", status, body)
			}
			results <- result{status, ar}
		}()
	}
	shared := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			continue
		}
		if r.resp.Analysis == nil || len(r.resp.Analysis.Importance) == 0 {
			t.Errorf("concurrent POST %d: empty analysis", i)
		}
		if r.resp.Shared {
			shared++
		}
	}
	snap := metrics(t, url)
	if snap.Analyses.Completed != 1 {
		t.Errorf("analyses.completed = %d after 2 identical concurrent requests, want 1", snap.Analyses.Completed)
	}
	if snap.Requests.CacheMisses != 1 || snap.Requests.SingleflightShared != 1 {
		t.Errorf("misses/shared = %d/%d, want 1/1", snap.Requests.CacheMisses, snap.Requests.SingleflightShared)
	}
	if shared != 1 {
		t.Errorf("shared responses = %d, want exactly 1", shared)
	}

	// Identical request again: served from the LRU without executing.
	status, body := post(t, url, analyzeBody(7))
	var cached client.AnalyzeResponse
	if status != http.StatusOK {
		t.Fatalf("cached POST: status %d, body %s", status, body)
	}
	if err := json.Unmarshal(body, &cached); err != nil {
		t.Fatalf("decode cached response: %v", err)
	}
	if !cached.Cached {
		t.Error("repeat request not served from cache")
	}
	if got := metrics(t, url); got.Analyses.Completed != 1 || got.Requests.CacheHits != 1 {
		t.Errorf("after cache hit: completed=%d hits=%d, want 1/1", got.Analyses.Completed, got.Requests.CacheHits)
	}

	// Part 2: overload. One worker, queue depth one: occupy the worker
	// with a slow analysis, fill the queue slot with a second, then a
	// third distinct request must be rejected with a typed 429.
	slow := make(chan result, 2)
	go func() {
		s, b := post(t, url, slowBody(101))
		var ar client.AnalyzeResponse
		json.Unmarshal(b, &ar)
		slow <- result{s, ar}
	}()
	waitFor(t, "worker busy", func() bool { return metrics(t, url).Queue.Active == 1 })
	go func() {
		s, b := post(t, url, slowBody(102))
		var ar client.AnalyzeResponse
		json.Unmarshal(b, &ar)
		slow <- result{s, ar}
	}()
	waitFor(t, "queue slot filled", func() bool { return metrics(t, url).Queue.Depth == 1 })

	status, body = post(t, url, analyzeBody(103))
	if status != http.StatusTooManyRequests {
		t.Fatalf("overload POST: status %d, want 429 (body %s)", status, body)
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("decode 429 body: %v", err)
	}
	if er.Error != "queue_full" || er.RetryAfterSeconds < 1 {
		t.Errorf("429 body = %+v, want error=queue_full with retry_after_seconds >= 1", er)
	}
	for i := 0; i < 2; i++ {
		if r := <-slow; r.status != http.StatusOK {
			t.Errorf("slow POST %d: status %d", i, r.status)
		}
	}
	if got := metrics(t, url); got.Requests.RejectedQueueFull != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", got.Requests.RejectedQueueFull)
	}

	// Part 3: SIGTERM with a request in flight. The in-flight analysis
	// must complete with 200, the store must flush intact, and run()
	// must return 0.
	inflight := make(chan result, 1)
	go func() {
		s, b := post(t, url, slowBody(201))
		var ar client.AnalyzeResponse
		json.Unmarshal(b, &ar)
		inflight <- result{s, ar}
	}()
	waitFor(t, "in-flight analysis", func() bool { return metrics(t, url).Queue.Active == 1 })
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("send SIGTERM: %v", err)
	}
	if r := <-inflight; r.status != http.StatusOK {
		t.Errorf("in-flight POST during shutdown: status %d, want 200", r.status)
	} else if r.resp.Analysis == nil || len(r.resp.Analysis.Importance) == 0 {
		t.Error("in-flight POST during shutdown: empty analysis")
	}
	select {
	case code := <-exitc:
		if code != 0 {
			t.Fatalf("run() exit code = %d, want 0 (stderr: %s)", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run() did not exit after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained, store flushed") {
		t.Errorf("stdout missing drain confirmation: %q", out.String())
	}

	// The flushed store reopens clean and holds the collected runs.
	db, err := store.Open(dbPath)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	if db.Skipped() != 0 {
		t.Errorf("store skipped %d records on reopen, want 0", db.Skipped())
	}
	if db.Len() == 0 {
		t.Error("store empty after shutdown flush")
	}
	names := map[string]bool{}
	for _, s := range db.Benchmarks() {
		names[s.Benchmark] = true
	}
	if !names["wordcount"] || !names["sort"] {
		t.Errorf("store benchmarks = %v, want wordcount and sort", names)
	}
}

// TestDaemonFlagValidation exercises the usage-error paths without
// starting a server.
func TestDaemonFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-workers", "0"},
		{"-queue", "-1"},
		{"-cache", "-2"},
		{"-budget", "0s"},
		{"-grace", "-1s"},
		{"-analysis-workers", "-3"},
		{"-cleaner", "nope"},
		{"-store-mem", "-5MiB"},
		{"-store-mem", "bogus"},
		{"-store-mem", "nan"},
		{"-store-mem", "1kbb"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		var out, errOut syncBuffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestDaemonUnknownCleanerListsCandidates pins the -cleaner usage
// error: the rejection must name the registered cleaners so the user
// can correct the flag without reading source.
func TestDaemonUnknownCleanerListsCandidates(t *testing.T) {
	var out, errOut syncBuffer
	if code := run([]string{"-cleaner", "bays"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-cleaner bays) = %d, want 2", code)
	}
	msg := errOut.String()
	for _, want := range []string{`unknown cleaner "bays"`, "candidates:", "bayes"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr %q missing %q", msg, want)
		}
	}
}
