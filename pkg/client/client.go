// Package client is the typed Go client for the counterminerd HTTP
// API. It owns the wire types (internal/serve uses them directly), so
// external tools talk to the service without hand-rolling JSON:
//
//	c := client.New("http://127.0.0.1:7070")
//	res, err := c.Analyze(ctx, client.AnalyzeRequest{Benchmark: "wordcount"})
//
// Overload handling is built in: 429 (queue full) and 503 (draining)
// responses are retried up to MaxRetries times, waiting out the
// server's Retry-After hint between attempts. Every other failure
// surfaces as a typed *APIError carrying the HTTP status and the
// server's machine-readable error code.
//
// A whole benchmark sweep goes in one round-trip through the batch
// endpoint; the server dedups exact duplicates and groups the rest for
// cache reuse:
//
//	jobs := []client.AnalyzeRequest{
//		{Benchmark: "wordcount"}, {Benchmark: "sort"}, {Benchmark: "wordcount"},
//	}
//	batch, err := c.AnalyzeBatch(ctx, jobs)
//	for _, job := range batch.Jobs { // request order, one entry per job
//		if job.Error != nil { ... } else { use job.Analysis }
//	}
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to one counterminerd instance. The zero value is not
// usable; construct with New. Client is safe for concurrent use.
type Client struct {
	baseURL string
	hc      *http.Client
	retries int
	base    time.Duration
	max     time.Duration
	jitter  func(attempt int) float64
	sleep   func(context.Context, time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default
// http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries sets how many times a 429/503 response is retried
// after waiting out its Retry-After hint (default 2; 0 disables
// retrying).
func WithMaxRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithRetryBackoff sets the retry wait's exponential shape: the first
// retry waits the longer of base and the server's Retry-After hint,
// each further retry doubles it, and no wait ever exceeds max
// (defaults: base 1s, max 30s). The cap matters: a Retry-After hint
// from a deeply overloaded server, doubled a few times, would
// otherwise grow into a multi-minute stall.
func WithRetryBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.base = base
		}
		if max > 0 {
			c.max = max
		}
	}
}

// WithRetryJitter desynchronizes retries: f(attempt) in [0,1] scales
// the random half of each wait, so a fleet of clients rejected by the
// same overloaded server does not come back in one synchronized
// stampede. With jitter installed, a wait of d becomes
// d/2 + f(attempt)*d/2. f must be deterministic for a given caller —
// seed it per client — so retry schedules stay reproducible; nil
// (the default) disables jitter and waits the full d.
func WithRetryJitter(f func(attempt int) float64) Option {
	return func(c *Client) { c.jitter = f }
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:7070").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		retries: 2,
		base:    time.Second,
		max:     30 * time.Second,
		sleep:   sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-200 response from the service, carrying the HTTP
// status and the server's typed ErrorResponse body.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the machine-readable error code (ErrorResponse.Error),
	// e.g. "queue_full" or "unknown_benchmark".
	Code string
	// Message is the human-readable detail.
	Message string
	// RetryAfterSeconds is the server's retry hint (0 when absent).
	RetryAfterSeconds int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("counterminerd: %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// Temporary reports whether the error is an overload rejection worth
// retrying (429 queue full, 503 draining).
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests ||
		e.StatusCode == http.StatusServiceUnavailable
}

// Analyze submits one analysis request and returns the mined result
// (possibly served from the server's content-addressed cache).
func (c *Client) Analyze(ctx context.Context, req AnalyzeRequest) (*AnalyzeResponse, error) {
	var out AnalyzeResponse
	if err := c.do(ctx, http.MethodPost, "/analyze", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AnalyzeBatch submits a whole sweep in one round-trip. The response
// carries one entry per job in request order; individual job failures
// are typed entries, not call errors.
func (c *Client) AnalyzeBatch(ctx context.Context, jobs []AnalyzeRequest) (*BatchResponse, error) {
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/analyze/batch", BatchRequest{Jobs: jobs}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AnalyzeBatchAsync submits a sweep as a streaming batch handle: the
// call returns as soon as the server has planned and admitted the jobs,
// and per-job results are consumed afterwards — streamed with
// AnalyzeBatchStream, polled with BatchSnapshot, or canceled with
// CancelBatch. Overload rejections (handle limit, draining) retry like
// every other call.
func (c *Client) AnalyzeBatchAsync(ctx context.Context, jobs []AnalyzeRequest) (*BatchHandleResponse, error) {
	var out BatchHandleResponse
	if err := c.do(ctx, http.MethodPost, "/analyze/batch?async=1", BatchRequest{Jobs: jobs}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BatchSnapshot polls an async batch handle: overall status, per-job
// state, and — once terminal — the final stats.
func (c *Client) BatchSnapshot(ctx context.Context, handle string) (*BatchSnapshot, error) {
	var out BatchSnapshot
	if err := c.do(ctx, http.MethodGet, "/batch/"+handle, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelBatch cancels an async batch handle's still-queued jobs (they
// complete with typed "canceled" errors; executing jobs finish
// normally) and returns the handle's snapshot. Canceling a terminal
// handle is a no-op that still returns the snapshot.
func (c *Client) CancelBatch(ctx context.Context, handle string) (*BatchSnapshot, error) {
	var out BatchSnapshot
	if err := c.do(ctx, http.MethodDelete, "/batch/"+handle, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Classify submits a profile — a benchmark identity, or an inline raw
// counter matrix — and returns the nearest stored workloads with
// distances, per-suite confidence, and the anomaly verdict.
func (c *Client) Classify(ctx context.Context, req ClassifyRequest) (*ClassifyResponse, error) {
	var out ClassifyResponse
	if err := c.do(ctx, http.MethodPost, "/classify", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Benchmarks fetches the analyzable catalog and the store's read side.
func (c *Client) Benchmarks(ctx context.Context) (*BenchmarksResponse, error) {
	var out BenchmarksResponse
	if err := c.do(ctx, http.MethodGet, "/benchmarks", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the server's metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*Snapshot, error) {
	var out Snapshot
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches liveness. Unlike the other calls it never retries and
// decodes the body on 503 too: a draining server answers
// {"status":"draining"} with a 503, which is an answer, not a failure.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil || h.Status == "" {
		return nil, apiError(resp, body)
	}
	return &h, nil
}

// Ready fetches readiness. Like Health it never retries and decodes
// the 503 body too: an unready node answers with its reasons, which is
// an answer, not a failure.
func (c *Client) Ready(ctx context.Context) (*ReadyResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var r ReadyResponse
	if err := json.Unmarshal(body, &r); err != nil || r.Status == "" {
		return nil, apiError(resp, body)
	}
	return &r, nil
}

// do runs one JSON exchange with Retry-After-aware retry: 429/503
// responses are retried up to MaxRetries times, waiting the longer of
// the Retry-After header and the body's retry_after_seconds hint
// (default 1s, capped at 30s) between attempts.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if in != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("client: decode %s response: %w", path, err)
			}
			return nil
		}
		apiErr := apiError(resp, data)
		if !apiErr.Temporary() || attempt >= c.retries {
			return apiErr
		}
		if err := c.sleep(ctx, c.retryDelay(apiErr, attempt)); err != nil {
			return err
		}
	}
}

// apiError builds the typed error from a non-200 response, preferring
// the JSON body and falling back to the raw status.
func apiError(resp *http.Response, body []byte) *APIError {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error != "" {
		apiErr.Code = er.Error
		apiErr.Message = er.Message
		apiErr.RetryAfterSeconds = er.RetryAfterSeconds
	} else {
		apiErr.Code = "http_error"
		apiErr.Message = strings.TrimSpace(string(body))
	}
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > apiErr.RetryAfterSeconds {
		apiErr.RetryAfterSeconds = s
	}
	return apiErr
}

// retryDelay converts a rejection into the attempt-th retry's wait:
// start from the longer of the server's Retry-After hint and the
// configured base, double per attempt, clamp to the configured max,
// then jitter if installed. The clamp runs last-but-one so a large
// hint can never ride the exponent past the cap; the left shift is
// itself overflow-guarded for pathological attempt counts.
func (c *Client) retryDelay(e *APIError, attempt int) time.Duration {
	d := time.Duration(e.RetryAfterSeconds) * time.Second
	if d < c.base {
		d = c.base
	}
	if attempt > 0 {
		if attempt > 16 || d<<attempt < d {
			d = c.max
		} else {
			d <<= attempt
		}
	}
	if d > c.max {
		d = c.max
	}
	if c.jitter != nil {
		f := c.jitter(attempt)
		if f < 0 {
			f = 0
		} else if f > 1 {
			f = 1
		}
		d = d/2 + time.Duration(f*float64(d/2))
	}
	return d
}

// sleepCtx waits d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
