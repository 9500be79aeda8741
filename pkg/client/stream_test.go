package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sseFrame renders one event as its wire frame.
func sseFrame(id int, name string, v any) string {
	data, _ := json.Marshal(v)
	return fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", id, name, data)
}

// streamServer serves the async-batch surface for the iterator tests:
// POST /analyze/batch answers a fixed handle, GET /batch/h1/events
// delegates to events.
func streamServer(t *testing.T, events http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("async") != "1" {
			t.Errorf("batch submit missing async=1: %s", r.URL.String())
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(BatchHandleResponse{Handle: "h1", Total: 2, EventsPath: "/batch/h1/events"})
	})
	mux.HandleFunc("/batch/h1/events", events)
	return httptest.NewServer(mux)
}

// TestBatchStreamYieldsResultsAndDone pins the iterator's happy path:
// results in server order, heartbeat comments skipped, terminal stats
// surfaced by Done.
func TestBatchStreamYieldsResultsAndDone(t *testing.T) {
	ts := streamServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, ": heartbeat\n\n")
		fmt.Fprint(w, sseFrame(1, "result", BatchJobResult{Index: 1, Key: "k1"}))
		fmt.Fprint(w, sseFrame(2, "result", BatchJobResult{Index: 0, Key: "k0"}))
		fmt.Fprint(w, sseFrame(3, "done", StreamDone{Status: "done", Stats: BatchStats{Submitted: 2}}))
	})
	defer ts.Close()

	st, err := New(ts.URL).AnalyzeBatchStream(context.Background(), []AnalyzeRequest{{Benchmark: "a"}, {Benchmark: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []int
	for st.Next() {
		got = append(got, st.Result().Index)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("yielded indexes %v, want [1 0] (completion order)", got)
	}
	d := st.Done()
	if d == nil || d.Status != "done" || d.Stats.Submitted != 2 {
		t.Fatalf("done event %+v", d)
	}
	if st.LastEventID() != 3 {
		t.Fatalf("cursor %d, want 3", st.LastEventID())
	}
}

// TestBatchStreamReconnectResumes pins the resume contract: a dropped
// connection reconnects with Last-Event-ID and the consumer observes
// every event exactly once across the break.
func TestBatchStreamReconnectResumes(t *testing.T) {
	var conns atomic.Int64
	ts := streamServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch conns.Add(1) {
		case 1:
			if r.Header.Get("Last-Event-ID") != "" {
				t.Errorf("first connect carried Last-Event-ID %q", r.Header.Get("Last-Event-ID"))
			}
			fmt.Fprint(w, sseFrame(1, "result", BatchJobResult{Index: 0, Key: "k0"}))
			// Drop the connection mid-stream.
		default:
			if got := r.Header.Get("Last-Event-ID"); got != "1" {
				t.Errorf("resume carried Last-Event-ID %q, want 1", got)
			}
			fmt.Fprint(w, sseFrame(2, "result", BatchJobResult{Index: 1, Key: "k1"}))
			fmt.Fprint(w, sseFrame(3, "done", StreamDone{Status: "done"}))
		}
	})
	defer ts.Close()

	c := New(ts.URL, WithMaxRetries(2))
	c.sleep = func(context.Context, time.Duration) error { return nil }
	st, err := c.AnalyzeBatchStream(context.Background(), []AnalyzeRequest{{Benchmark: "a"}, {Benchmark: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []int
	for st.Next() {
		got = append(got, st.Result().Index)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream error after resume: %v", err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("yielded %v across reconnect, want [0 1]", got)
	}
	if conns.Load() != 2 {
		t.Fatalf("connections = %d, want 2", conns.Load())
	}
}

// TestBatchStreamIDlessFrameKeepsCursor: a frame without an id line
// must not rewind the resume cursor. The first connection delivers
// result 1 and then an id-less progress frame before it drops; the
// reconnect must still resume after event 1, so a server that replays
// from Last-Event-ID sends nothing twice.
func TestBatchStreamIDlessFrameKeepsCursor(t *testing.T) {
	frames := []string{
		sseFrame(1, "result", BatchJobResult{Index: 0, Key: "k0"}),
		sseFrame(2, "result", BatchJobResult{Index: 1, Key: "k1"}),
		sseFrame(3, "done", StreamDone{Status: "done"}),
	}
	var conns atomic.Int64
	var resumedFrom atomic.Value
	ts := streamServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		if conns.Add(1) == 1 {
			fmt.Fprint(w, frames[0])
			fmt.Fprint(w, "event: progress\ndata: {}\n\n")
			return // drop the connection
		}
		last := r.Header.Get("Last-Event-ID")
		resumedFrom.Store(last)
		// Replay every event after Last-Event-ID, as the server does.
		after := 0
		fmt.Sscan(last, &after)
		for _, f := range frames[after:] {
			fmt.Fprint(w, f)
		}
	})
	defer ts.Close()

	c := New(ts.URL, WithMaxRetries(2))
	c.sleep = func(context.Context, time.Duration) error { return nil }
	st, err := c.AnalyzeBatchStream(context.Background(), []AnalyzeRequest{{Benchmark: "a"}, {Benchmark: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []int
	for st.Next() {
		got = append(got, st.Result().Index)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream error after resume: %v", err)
	}
	if from, _ := resumedFrom.Load().(string); from != "1" {
		t.Errorf("resume carried Last-Event-ID %q, want 1", from)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("yielded %v across reconnect, want [0 1]", got)
	}
	if st.LastEventID() != 3 {
		t.Fatalf("cursor %d, want 3", st.LastEventID())
	}
}

// FuzzReadEvent feeds arbitrary bytes through the SSE frame parser
// until it reports a read error, advancing the resume cursor after each
// frame as Next does. No input may panic, and each dispatched frame
// must carry the last id line of that frame that parses, or the cursor
// when none does; the frames are found here by splitting the input at
// its line ends.
func FuzzReadEvent(f *testing.F) {
	const cursor = 7 // a resume position from an earlier connection
	f.Fuzz(func(t *testing.T, in []byte) {
		want := frameIDs(string(in), cursor)
		s := &BatchStream{rd: bufio.NewReader(bytes.NewReader(in)), lastID: cursor}
		for i := 0; ; i++ {
			ev, err := s.readEvent()
			if err != nil {
				if i != len(want) {
					t.Fatalf("%d frames dispatched, want %d", i, len(want))
				}
				return
			}
			if i >= len(want) {
				t.Fatalf("frame %d dispatched, want %d frames", i, len(want))
			}
			if ev.id != want[i] {
				t.Fatalf("frame %d: id %d, want %d", i, ev.id, want[i])
			}
			s.lastID = ev.id
		}
	})
}

// frameIDs lists the id of each frame the input dispatches: the last
// id value in the frame that parses, else the id before it, starting
// from cursor. A frame is dispatched at a blank line once it holds an
// id, event or data field; comment lines start with a colon, and an
// unterminated last line is never read.
func frameIDs(in string, cursor uint64) []uint64 {
	lines := strings.Split(in, "\n")
	var out []uint64
	id, fields := cursor, false
	for _, line := range lines[:len(lines)-1] {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			if fields {
				out = append(out, id)
			}
			fields = false
			continue
		}
		if line[0] == ':' {
			continue
		}
		name, value, _ := strings.Cut(line, ":")
		switch name {
		case "id":
			if n, err := strconv.ParseUint(strings.TrimPrefix(value, " "), 10, 64); err == nil {
				id = n
			}
			fields = true
		case "event", "data":
			fields = true
		}
	}
	return out
}

// TestBatchStreamPermanentErrorFatal pins that a typed permanent
// rejection (unknown handle) ends the stream without reconnect churn.
func TestBatchStreamPermanentErrorFatal(t *testing.T) {
	var conns atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/batch/gone/events", func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "unknown_handle", Message: "gone"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL, WithMaxRetries(3))
	st := c.StreamBatch(context.Background(), "gone")
	if st.Next() {
		t.Fatal("Next reported an event from a 404 stream")
	}
	apiErr, ok := st.Err().(*APIError)
	if !ok || apiErr.Code != "unknown_handle" {
		t.Fatalf("stream error %v, want typed unknown_handle", st.Err())
	}
	if conns.Load() != 1 {
		t.Fatalf("connections = %d, want 1 (no retries on permanent error)", conns.Load())
	}
}

// TestBatchStreamRetriesExhausted pins the bound: consecutive
// connection failures beyond MaxRetries surface as the stream error.
func TestBatchStreamRetriesExhausted(t *testing.T) {
	var conns atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/batch/h1/events", func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		// Always drop before any event: never makes progress.
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL, WithMaxRetries(2))
	c.sleep = func(context.Context, time.Duration) error { return nil }
	st := c.StreamBatch(context.Background(), "h1")
	if st.Next() {
		t.Fatal("Next reported an event from a dead stream")
	}
	if st.Err() == nil {
		t.Fatal("no stream error after exhausted retries")
	}
	if conns.Load() != 3 {
		t.Fatalf("connections = %d, want 3 (initial + 2 retries)", conns.Load())
	}
}

// TestBatchSnapshotAndCancel round-trips the polling and cancellation
// calls.
func TestBatchSnapshotAndCancel(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/batch/h1", func(w http.ResponseWriter, r *http.Request) {
		status := "open"
		if r.Method == http.MethodDelete {
			status = "canceled"
		}
		json.NewEncoder(w).Encode(BatchSnapshot{Handle: "h1", Status: status, Total: 1})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL)
	snap, err := c.BatchSnapshot(context.Background(), "h1")
	if err != nil || snap.Status != "open" {
		t.Fatalf("snapshot %+v, %v", snap, err)
	}
	snap, err = c.CancelBatch(context.Background(), "h1")
	if err != nil || snap.Status != "canceled" {
		t.Fatalf("cancel %+v, %v", snap, err)
	}
}
