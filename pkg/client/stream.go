package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// AnalyzeBatchStream submits a sweep as an async batch handle and
// returns an iterator over its per-job results, yielded in completion
// order as the server finishes them:
//
//	st, err := c.AnalyzeBatchStream(ctx, jobs)
//	if err != nil { ... }
//	defer st.Close()
//	for st.Next() {
//	    res := st.Result() // one job, the moment it completed
//	}
//	if err := st.Err(); err != nil { ... }
//	stats := st.Done().Stats // terminal accounting
//
// The iterator rides SSE underneath and reconnects automatically: a
// dropped connection resumes from the last seen event ID with the
// client's Retry-After-aware backoff, so consumers never observe a
// duplicate and never lose a completion. MaxRetries bounds the
// consecutive reconnect attempts.
func (c *Client) AnalyzeBatchStream(ctx context.Context, jobs []AnalyzeRequest) (*BatchStream, error) {
	h, err := c.AnalyzeBatchAsync(ctx, jobs)
	if err != nil {
		return nil, err
	}
	return c.StreamBatch(ctx, h.Handle), nil
}

// StreamBatch attaches an iterator to an existing async batch handle,
// from the beginning of its event log. To resume a previous consumer's
// position instead, call SetLastEventID before the first Next.
func (c *Client) StreamBatch(ctx context.Context, handle string) *BatchStream {
	return &BatchStream{c: c, ctx: ctx, handle: handle}
}

// BatchStream iterates one async batch's completion events. Not safe
// for concurrent use.
type BatchStream struct {
	c      *Client
	ctx    context.Context
	handle string

	lastID   uint64
	cur      *BatchJobResult
	doneEv   *StreamDone
	err      error
	failures int

	body io.ReadCloser
	rd   *bufio.Reader
}

// Handle returns the batch handle the stream consumes.
func (s *BatchStream) Handle() string { return s.handle }

// LastEventID returns the sequence number of the last event consumed —
// the cursor a replacement consumer would resume from.
func (s *BatchStream) LastEventID() uint64 { return s.lastID }

// SetLastEventID positions the stream's resume cursor; events with
// sequence <= id are skipped. Call before the first Next.
func (s *BatchStream) SetLastEventID(id uint64) { s.lastID = id }

// Next advances to the next per-job result, blocking until the server
// completes one. It returns false when the stream is finished — either
// terminally (Done reports the batch's final accounting) or on error
// (Err reports it).
func (s *BatchStream) Next() bool {
	for {
		if s.doneEv != nil || s.err != nil {
			return false
		}
		if s.rd == nil {
			if err := s.connect(); err != nil {
				if !s.retryable(err) {
					s.err = err
					return false
				}
				continue
			}
		}
		ev, err := s.readEvent()
		if err != nil {
			s.closeBody()
			if !s.retryable(err) {
				s.err = err
				return false
			}
			continue
		}
		switch ev.name {
		case "result":
			var res BatchJobResult
			if jerr := json.Unmarshal(ev.data, &res); jerr != nil {
				s.err = fmt.Errorf("client: decode stream event %d: %w", ev.id, jerr)
				return false
			}
			s.lastID = ev.id
			s.failures = 0
			s.cur = &res
			return true
		case "done":
			var d StreamDone
			if jerr := json.Unmarshal(ev.data, &d); jerr != nil {
				s.err = fmt.Errorf("client: decode stream done event: %w", jerr)
				return false
			}
			s.lastID = ev.id
			s.doneEv = &d
			s.closeBody()
			return false
		default:
			// Unknown event types are skipped (forward compatibility),
			// but the cursor still advances past them.
			s.lastID = ev.id
		}
	}
}

// Result returns the job result Next advanced to.
func (s *BatchStream) Result() *BatchJobResult { return s.cur }

// Done returns the terminal event once the stream completed normally
// (nil before that, and nil when the stream ended in Err).
func (s *BatchStream) Done() *StreamDone { return s.doneEv }

// Err returns the error that ended the stream, nil after a normal
// terminal event.
func (s *BatchStream) Err() error {
	if s.err != nil && errors.Is(s.err, io.EOF) && s.doneEv != nil {
		return nil
	}
	return s.err
}

// Close releases the underlying connection. The iterator is unusable
// afterwards; Close is idempotent and safe mid-stream (the server-side
// handle keeps the events — a new StreamBatch with SetLastEventID
// resumes where this one stopped).
func (s *BatchStream) Close() error {
	s.closeBody()
	if s.doneEv == nil && s.err == nil {
		s.err = errors.New("client: stream closed")
	}
	return nil
}

// retryable decides whether a connect/read failure is worth a
// reconnect+resume, waits out the backoff if so, and counts the
// consecutive failures against MaxRetries.
func (s *BatchStream) retryable(err error) bool {
	if s.ctx.Err() != nil {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) && !apiErr.Temporary() {
		// A typed permanent rejection (unknown handle, bad request)
		// never heals by reconnecting.
		return false
	}
	if s.failures >= s.c.retries {
		return false
	}
	if apiErr == nil {
		apiErr = &APIError{}
	}
	if werr := s.c.sleep(s.ctx, s.c.retryDelay(apiErr, s.failures)); werr != nil {
		return false
	}
	s.failures++
	return true
}

// connect opens (or re-opens) the SSE request, resuming after the last
// consumed event via Last-Event-ID.
func (s *BatchStream) connect() error {
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, s.c.baseURL+"/batch/"+s.handle+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if s.lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(s.lastID, 10))
	}
	resp, err := s.c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return apiError(resp, body)
	}
	s.body = resp.Body
	s.rd = bufio.NewReader(resp.Body)
	return nil
}

func (s *BatchStream) closeBody() {
	if s.body != nil {
		s.body.Close()
		s.body = nil
		s.rd = nil
	}
}

// sseEvent is one parsed Server-Sent Events frame.
type sseEvent struct {
	id   uint64
	name string
	data []byte
}

// readEvent parses the next SSE frame, skipping comment heartbeats. A
// frame's id is its last id line that parses; a frame with none keeps
// the resume cursor, since SSE's last event ID persists across frames
// that carry no id. A frame is dispatched at the blank line that ends
// it; input that ends before that line returns the read error instead.
func (s *BatchStream) readEvent() (sseEvent, error) {
	ev := sseEvent{id: s.lastID}
	dispatch := false
	for {
		line, err := s.rd.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if dispatch {
				return ev, nil
			}
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue // heartbeat comment
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			if n, perr := strconv.ParseUint(value, 10, 64); perr == nil {
				ev.id = n
			}
			dispatch = true
		case "event":
			ev.name = value
			dispatch = true
		case "data":
			if len(ev.data) > 0 {
				ev.data = append(ev.data, '\n')
			}
			ev.data = append(ev.data, value...)
			dispatch = true
		}
	}
}
