package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"counterminer/internal/stream"
	"counterminer/pkg/client"
)

// handleBatchAsync is POST /analyze/batch?async=1: the batch becomes a
// streaming handle. The planned batch is dispatched exactly like a
// synchronous one — same dispatch loop, same deduplication and
// admission — but instead of holding the connection until the slowest
// job finishes, the server answers 202 with a handle immediately and
// publishes each job's result as an event the moment it completes.
// Consumers stream the events (GET /batch/{handle}/events, SSE), poll
// the snapshot (GET /batch/{handle}), or cancel still-queued jobs
// (DELETE /batch/{handle}).
func (s *Server) handleBatchAsync(w http.ResponseWriter, pb *plannedBatch) {
	h, err := s.streams.Open(len(pb.results), pb.stats)
	if err != nil {
		s.metrics.IncBatchRejected()
		writeError(w, http.StatusTooManyRequests, "handle_limit", err.Error())
		return
	}

	// Completions are deliberately deferred: nothing lands on the
	// handle until the final stats are set, so even a cache hit that
	// finishes the whole batch synchronously publishes a terminal event
	// with complete accounting.
	cancels := s.dispatch(pb)
	h.SetStats(pb.stats)
	h.SetOnCancel(func() {
		// Cancel only this handle's still-queued jobs: they execute
		// immediately into the pipeline's *CancelError and complete
		// through the ordinary delivery path. Executing jobs — and
		// followers sharing another request's execution — finish
		// normally.
		for _, cancel := range cancels {
			cancel()
		}
	})
	wg := pb.deliver(h.Complete)
	go func() {
		// Fold the batch into /metrics once every event has landed, so
		// the error count is final (a drain force-finish races benignly:
		// the handle's stats are terminal either way by now).
		wg.Wait()
		if snap := h.Snapshot(); snap.Stats != nil {
			s.metrics.ObserveBatch(*snap.Stats)
		}
	}()

	writeJSON(w, http.StatusAccepted, client.BatchHandleResponse{
		Handle:       h.ID(),
		Total:        h.Total(),
		EventsPath:   "/batch/" + h.ID() + "/events",
		SnapshotPath: "/batch/" + h.ID(),
	})
}

// handleBatchHandle routes /batch/{handle} and /batch/{handle}/events:
// snapshot polling, SSE streaming, and cancellation for one async
// batch handle.
func (s *Server) handleBatchHandle(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest()
	rest := strings.TrimPrefix(r.URL.Path, "/batch/")
	parts := strings.Split(rest, "/")
	if parts[0] == "" || len(parts) > 2 || (len(parts) == 2 && parts[1] != "events") {
		writeError(w, http.StatusNotFound, "not_found", "use /batch/{handle} or /batch/{handle}/events")
		return
	}
	h, ok := s.streams.Get(parts[0])
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_handle",
			fmt.Sprintf("unknown batch handle %q (expired, or never issued)", parts[0]))
		return
	}
	if len(parts) == 2 {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
			return
		}
		s.serveEvents(w, r, h)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, h.Snapshot())
	case http.MethodDelete:
		h.Cancel()
		writeJSON(w, http.StatusOK, h.Snapshot())
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET or DELETE")
	}
}

// serveEvents is GET /batch/{handle}/events: the handle's completions
// as Server-Sent Events — one `result` event per job in completion
// order, a terminal `done` event carrying the final BatchStats, and
// comment heartbeats to keep idle proxies from reaping the connection.
// Every event carries its sequence number as the SSE id, and a
// reconnecting consumer resumes with Last-Event-ID (header, or the
// last_event_id query parameter for curl): exactly the missed events
// replay, served from the per-handle ring buffer or rebuilt from the
// stored results when evicted. A cursor that is not an event id of the
// stream — 0 through the done event's id — is a 400.
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request, h *stream.Handle) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "streaming unsupported by this connection")
		return
	}
	v := r.URL.Query().Get("last_event_id")
	if v == "" {
		v = r.Header.Get("Last-Event-ID")
	}
	var cursor uint64
	if v != "" {
		last := uint64(h.Total()) + 1
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n > last {
			s.metrics.IncBadRequest()
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("Last-Event-ID %q is not an event id of this stream (0 to %d)", v, last))
			return
		}
		cursor = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sub := h.Subscribe()
	defer h.Unsubscribe(sub)
	hb := time.NewTicker(s.cfg.StreamHeartbeat)
	defer hb.Stop()
	for {
		evs, terminal := h.EventsSince(cursor)
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Name, ev.Data)
		}
		if len(evs) > 0 {
			cursor = evs[len(evs)-1].Seq
			s.streams.AddEventsSent(len(evs))
			fl.Flush()
		}
		if terminal {
			// The done event is out; the stream is complete. Drain
			// relies on this return so http.Server.Shutdown can finish
			// inside its grace window.
			return
		}
		select {
		case <-sub.C:
		case <-hb.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// streamGroupGauges renders the queue's per-grouping-key state for the
// /metrics stream section, translating scheduler keys into display
// form.
func streamGroupGauges(depths []stream.GroupDepth) []client.StreamGroupGauge {
	out := make([]client.StreamGroupGauge, len(depths))
	for i, gd := range depths {
		g := client.StreamGroupGauge{
			Group:     displayGroup(gd.Group),
			Depth:     gd.Depth,
			Executing: gd.Executing,
		}
		if !gd.Oldest.IsZero() {
			g.OldestWaitMs = msSince(gd.Oldest)
		}
		out[i] = g
	}
	return out
}

// displayGroup turns a scheduler grouping key (benchmark + NUL +
// colocate) into its display form: "wordcount", "wordcount+sort", or
// "(ungrouped)" for keyless submissions.
func displayGroup(key string) string {
	var parts []string
	for _, p := range strings.Split(key, "\x00") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		return "(ungrouped)"
	}
	return strings.Join(parts, "+")
}
