package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"counterminer/pkg/client"
)

// postAsyncBatch submits a batch with async=1 and decodes the 202
// handle envelope.
func postAsyncBatch(t *testing.T, url, body string) (*http.Response, client.BatchHandleResponse, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/analyze/batch?async=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /analyze/batch?async=1: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var hr client.BatchHandleResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(b, &hr); err != nil {
			t.Fatalf("decode handle response: %v (%s)", err, b)
		}
	}
	return resp, hr, b
}

// rawSSE is one frame read straight off the wire by readFrame.
type rawSSE struct {
	id   string
	name string
	data string
}

// readFrame parses the next non-comment SSE frame from rd.
func readFrame(t *testing.T, rd *bufio.Reader) rawSSE {
	t.Helper()
	var fr rawSSE
	seen := false
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE frame: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if seen {
				return fr
			}
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			fr.id = value
			seen = true
		case "event":
			fr.name = value
			seen = true
		case "data":
			fr.data = value
			seen = true
		}
	}
}

// TestAsyncBatchStreamExactlyOnce is the streaming acceptance at the
// serve layer: an async batch with a duplicate and an invalid job
// yields exactly one event per job, a terminal done event with the
// same accounting a synchronous batch would report, and a terminal
// snapshot.
func TestAsyncBatchStreamExactlyOnce(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
	close(g.release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	wc := client.AnalyzeRequest{Benchmark: "wordcount", SkipEIR: true, Seed: 1}
	srt := client.AnalyzeRequest{Benchmark: "sort", SkipEIR: true, Seed: 1}
	bad := client.AnalyzeRequest{Benchmark: "no-such-benchmark"}
	resp, hr, b := postAsyncBatch(t, ts.URL, batchBody(t, wc, srt, wc, bad))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", resp.StatusCode, b)
	}
	if hr.Handle == "" || hr.Total != 4 || hr.EventsPath != "/batch/"+hr.Handle+"/events" {
		t.Fatalf("handle envelope %+v", hr)
	}

	st := client.New(ts.URL).StreamBatch(context.Background(), hr.Handle)
	defer st.Close()
	seen := map[int]int{}
	for st.Next() {
		seen[st.Result().Index]++
		if st.Result().Index == 3 {
			if st.Result().Error == nil || st.Result().Error.Error != "unknown_benchmark" {
				t.Errorf("invalid job event error = %+v, want unknown_benchmark", st.Result().Error)
			}
		}
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(seen) != 4 {
		t.Fatalf("distinct job events = %d (%v), want 4", len(seen), seen)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("job %d emitted %d events, want exactly 1", idx, n)
		}
	}
	d := st.Done()
	if d == nil || d.Status != "done" {
		t.Fatalf("terminal event %+v, want status done", d)
	}
	want := client.BatchStats{Submitted: 4, Deduped: 1, Executed: 2, Errors: 1, Groups: 2, ScheduleOrder: []int{0, 1}}
	if d.Stats.Submitted != want.Submitted || d.Stats.Deduped != want.Deduped ||
		d.Stats.Executed != want.Executed || d.Stats.Errors != want.Errors || d.Stats.Groups != want.Groups {
		t.Errorf("terminal stats = %+v, want %+v", d.Stats, want)
	}

	snap, err := client.New(ts.URL).BatchSnapshot(context.Background(), hr.Handle)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != "done" || snap.Completed != 4 || snap.Stats == nil {
		t.Errorf("terminal snapshot %+v", snap)
	}
	for i, js := range snap.Jobs {
		wantStatus := "done"
		if i == 3 {
			wantStatus = "error"
		}
		if js.Status != wantStatus {
			t.Errorf("snapshot job %d status %q, want %q", i, js.Status, wantStatus)
		}
	}

	// The batch folded into /metrics once; the stream section accounts
	// for the handle and its fanout.
	waitFor(t, "batch metrics", func() bool { return s.snapshot().Batch.Batches == 1 })
	ms := s.snapshot()
	if ms.Batch.Jobs != 4 || ms.Batch.JobErrors != 1 {
		t.Errorf("batch metrics after async batch = %+v", ms.Batch)
	}
	if ms.Stream.HandlesOpened != 1 || ms.Stream.HandlesFinished != 1 || ms.Stream.OpenHandles != 0 {
		t.Errorf("stream handle metrics = %+v", ms.Stream)
	}
	if ms.Stream.EventsSent < 5 {
		t.Errorf("events sent = %d, want >= 5 (4 results + done)", ms.Stream.EventsSent)
	}
}

// TestAsyncBatchSSEResumeReplaysMissed kills a consumer after the
// first event and resumes with last_event_id: exactly the missed
// events replay, nothing duplicates, nothing drops.
func TestAsyncBatchSSEResumeReplaysMissed(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer s.queue.Drain()
	defer close(g.release) // before Drain: any still-gated job must finish
	defer ts.Close()

	body := batchBody(t,
		client.AnalyzeRequest{Benchmark: "wordcount", SkipEIR: true, Seed: 1},
		client.AnalyzeRequest{Benchmark: "sort", SkipEIR: true, Seed: 1},
		client.AnalyzeRequest{Benchmark: "pagerank", SkipEIR: true, Seed: 1},
	)
	resp, hr, b := postAsyncBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", resp.StatusCode, b)
	}

	// Let exactly one job through, consume its event, then kill the
	// connection.
	g.release <- struct{}{}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+hr.EventsPath, nil)
	r1, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fr := readFrame(t, bufio.NewReader(r1.Body))
	if fr.name != "result" || fr.id != "1" {
		t.Fatalf("first frame = %+v, want result #1", fr)
	}
	var first client.BatchJobResult
	if err := json.Unmarshal([]byte(fr.data), &first); err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()

	// Finish the remaining jobs while no consumer is attached, then
	// resume via the query-parameter cursor (the curl spelling).
	g.release <- struct{}{}
	g.release <- struct{}{}
	waitFor(t, "handle terminal", func() bool {
		snap, err := client.New(ts.URL).BatchSnapshot(context.Background(), hr.Handle)
		return err == nil && snap.Status == "done"
	})
	r2, err := http.Get(ts.URL + hr.EventsPath + "?last_event_id=1")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	rd := bufio.NewReader(r2.Body)
	indexes := map[int]bool{first.Index: true}
	for want := 2; want <= 3; want++ {
		fr := readFrame(t, rd)
		if fr.name != "result" || fr.id != strconv.Itoa(want) {
			t.Fatalf("resumed frame = %+v, want result #%d", fr, want)
		}
		var res client.BatchJobResult
		if err := json.Unmarshal([]byte(fr.data), &res); err != nil {
			t.Fatal(err)
		}
		if indexes[res.Index] {
			t.Fatalf("job %d replayed twice across resume", res.Index)
		}
		indexes[res.Index] = true
	}
	if fr := readFrame(t, rd); fr.name != "done" || fr.id != "4" {
		t.Fatalf("resumed terminal frame = %+v, want done #4", fr)
	}
	if len(indexes) != 3 {
		t.Fatalf("jobs observed across both consumers = %v, want all 3", indexes)
	}
}

// TestAsyncBatchResumeCursorBounds: a resume cursor must be an event id
// of the stream, 0 through the done event's id. Anything else is a 400,
// never a silently empty or full replay; the query value wins over the
// header.
func TestAsyncBatchResumeCursorBounds(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
	close(g.release)
	ts := httptest.NewServer(s.Handler())
	defer s.queue.Drain()
	defer ts.Close()

	resp, hr, b := postAsyncBatch(t, ts.URL, batchBody(t,
		client.AnalyzeRequest{Benchmark: "wordcount", SkipEIR: true, Seed: 1},
		client.AnalyzeRequest{Benchmark: "sort", SkipEIR: true, Seed: 1},
	))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", resp.StatusCode, b)
	}
	waitFor(t, "handle terminal", func() bool {
		snap, err := client.New(ts.URL).BatchSnapshot(context.Background(), hr.Handle)
		return err == nil && snap.Status == "done"
	})

	for _, tc := range []struct {
		query, header string
		status        int
		events        string // event names of a 200 stream, in order
	}{
		{"", "", http.StatusOK, "result,result,done"},
		{"3", "", http.StatusOK, ""},
		{"3", "99", http.StatusOK, ""},
		{"99", "", http.StatusBadRequest, ""},
		{"abc", "", http.StatusBadRequest, ""},
		{"-1", "", http.StatusBadRequest, ""},
		{"", "99", http.StatusBadRequest, ""},
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+hr.EventsPath, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.query != "" {
			req.URL.RawQuery = "last_event_id=" + tc.query
		}
		if tc.header != "" {
			req.Header.Set("Last-Event-ID", tc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("query %q header %q: status = %d, want %d (%s)", tc.query, tc.header, resp.StatusCode, tc.status, body)
			continue
		}
		if tc.status != http.StatusOK {
			var er client.ErrorResponse
			if json.Unmarshal(body, &er) != nil || er.Error != "bad_request" {
				t.Errorf("query %q header %q: body = %s, want code bad_request", tc.query, tc.header, body)
			}
			continue
		}
		var names []string
		for _, line := range strings.Split(string(body), "\n") {
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				names = append(names, name)
			}
		}
		if got := strings.Join(names, ","); got != tc.events {
			t.Errorf("query %q header %q: events = %q, want %q", tc.query, tc.header, got, tc.events)
		}
	}
}

// TestAsyncBatchCancelQueuedJobs pins DELETE /batch/{handle}: queued
// jobs cancel through the pipeline's *CancelError path, the executing
// job finishes normally, and the terminal event reports the batch
// canceled.
func TestAsyncBatchCancelQueuedJobs(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	body := batchBody(t,
		client.AnalyzeRequest{Benchmark: "wordcount", SkipEIR: true, Seed: 1},
		client.AnalyzeRequest{Benchmark: "sort", SkipEIR: true, Seed: 1},
	)
	resp, hr, b := postAsyncBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", resp.StatusCode, b)
	}
	<-g.entered // wordcount executing; sort queued

	st := client.New(ts.URL).StreamBatch(context.Background(), hr.Handle)
	defer st.Close()

	snap, err := client.New(ts.URL).CancelBatch(context.Background(), hr.Handle)
	if err != nil {
		t.Fatalf("DELETE /batch/%s: %v", hr.Handle, err)
	}
	if snap.Status != "canceled" {
		t.Errorf("post-cancel snapshot status %q, want canceled", snap.Status)
	}

	// Release exactly the executing job. The queued job's context is
	// already canceled, so when the worker reaches it the gate's
	// ctx.Done branch fires deterministically (no pending release).
	g.release <- struct{}{}

	results := map[int]*client.BatchJobResult{}
	for st.Next() {
		r := *st.Result()
		results[r.Index] = &r
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("events = %d, want 2", len(results))
	}
	if results[0].Error != nil || results[0].Analysis == nil {
		t.Errorf("executing job result %+v; cancel must not touch in-flight work", results[0])
	}
	if results[1].Error == nil || results[1].Error.Error != "canceled" {
		t.Errorf("queued job error = %+v, want canceled (typed *CancelError path)", results[1].Error)
	}
	d := st.Done()
	if d == nil || d.Status != "canceled" {
		t.Fatalf("terminal event %+v, want status canceled", d)
	}
	if s.snapshot().Stream.HandlesCanceled != 1 {
		t.Errorf("canceled-handle counter = %d, want 1", s.snapshot().Stream.HandlesCanceled)
	}
}

// TestAsyncBatchDrainDeliversTerminal pins shutdown behavior: a drain
// that starts while a stream is open still delivers every completion
// and the terminal event, so consumers exit cleanly instead of
// hanging on a dead socket.
func TestAsyncBatchDrainDeliversTerminal(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := batchBody(t,
		client.AnalyzeRequest{Benchmark: "wordcount", SkipEIR: true, Seed: 1},
		client.AnalyzeRequest{Benchmark: "sort", SkipEIR: true, Seed: 1},
	)
	resp, hr, b := postAsyncBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", resp.StatusCode, b)
	}
	<-g.entered

	st := client.New(ts.URL).StreamBatch(context.Background(), hr.Handle)
	defer st.Close()

	drained := make(chan struct{})
	go func() {
		s.drainWork()
		close(drained)
	}()
	waitFor(t, "queue draining", func() bool {
		_, err := s.queue.Submit(time.Time{}, noopJob)
		return err == ErrDraining
	})
	g.release <- struct{}{} // executing job finishes; queued one cancels

	n := 0
	for st.Next() {
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream error across drain: %v", err)
	}
	if n != 2 {
		t.Errorf("events across drain = %d, want 2", n)
	}
	if st.Done() == nil {
		t.Fatal("no terminal event across drain")
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drainWork did not return")
	}
}

// TestAsyncBatchHandleLimit pins admission control on the handle
// registry: past StreamHandles open handles the submit rejects typed,
// without planning or queueing anything.
func TestAsyncBatchHandleLimit(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, StreamHandles: 1})
	ts := httptest.NewServer(s.Handler())
	defer s.queue.Drain()
	defer close(g.release) // before Drain: the gated executing job must finish
	defer ts.Close()

	body := batchBody(t, client.AnalyzeRequest{Benchmark: "wordcount", SkipEIR: true, Seed: 1})
	resp, _, b := postAsyncBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first async submit status = %d: %s", resp.StatusCode, b)
	}
	resp, _, b = postAsyncBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit status = %d: %s", resp.StatusCode, b)
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(b, &er); err != nil || er.Error != "handle_limit" {
		t.Fatalf("over-limit error = %s, want handle_limit", b)
	}
}

// TestBatchHandleRouteErrors pins the routing edges of /batch/.
func TestBatchHandleRouteErrors(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 2, CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	for _, tc := range []struct {
		path string
		code int
		typ  string
	}{
		{"/batch/", http.StatusNotFound, "not_found"},
		{"/batch/nope", http.StatusNotFound, "unknown_handle"},
		{"/batch/nope/events", http.StatusNotFound, "unknown_handle"},
		{"/batch/a/b/c", http.StatusNotFound, "not_found"},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var er client.ErrorResponse
		if resp.StatusCode != tc.code || json.Unmarshal(b, &er) != nil || er.Error != tc.typ {
			t.Errorf("GET %s = %d %s, want %d %s", tc.path, resp.StatusCode, b, tc.code, tc.typ)
		}
	}
}
