package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	counterminer "counterminer"
	"counterminer/pkg/client"
)

// startJob is the one way work enters the admission queue: it submits
// the cache leader for job.Key under deadline. The job records its
// outcome in /metrics and hands the cache completion back to the queue,
// which publishes it only after counting the job, so whoever the result
// wakes sees queue.executed already include it. An admission rejection
// completes the call with the typed error, so every waiter (single
// request, batch entry, or singleflight follower) observes it instead
// of hanging. cancel fails the job only while it is still queued.
func (s *Server) startJob(call *Call[*counterminer.Analysis], job Job, deadline time.Time) (cancel func(), err error) {
	cancel, err = s.queue.Submit(deadline, func(ctx context.Context) func() {
		start := time.Now()
		a, aerr := s.analyze(ctx, job)
		if job.Kind == KindFingerprint {
			s.metrics.ObserveEmbed(aerr, time.Since(start))
		} else {
			s.metrics.ObserveAnalysis(a, aerr)
		}
		return func() { s.cache.Complete(job.Key, call, a, aerr) }
	})
	if err != nil {
		s.cache.Complete(job.Key, call, nil, err)
	}
	return cancel, err
}

// acquire is the admission step /analyze and Execute share: look the
// job's key up in the result cache, count the outcome in the request
// counters, and — when this caller leads — start the job under a
// deadline carved from the server budget now, so queue wait counts
// against it.
func (s *Server) acquire(job Job) (ana *counterminer.Analysis, ok bool, call *Call[*counterminer.Analysis], leader bool) {
	ana, ok, call, leader = s.cache.Acquire(job.Key)
	switch {
	case ok:
		s.metrics.IncCacheHit()
	case leader:
		s.metrics.IncCacheMiss()
		if _, err := s.startJob(call, job, time.Now().Add(s.cfg.Budget)); err != nil {
			s.metrics.IncRejected(err)
		}
	default:
		s.metrics.IncShared()
	}
	return ana, ok, call, leader
}

// batchJob is one valid batch member: its resolved job, the index of
// the job that executes on its behalf (itself for the first job with
// its key), and — once dispatched, unless served from the LRU — the
// singleflight call carrying its result.
type batchJob struct {
	job  Job
	lead int
	call *Call[*counterminer.Analysis]
}

// plannedBatch is one batch from planning to delivery: every job
// resolved (invalid ones parked as typed per-job errors in results),
// exact duplicates pointed at their leader, and the batch's accounting.
type plannedBatch struct {
	results []client.BatchJobResult
	states  []*batchJob // nil for invalid jobs
	stats   client.BatchStats
}

// planBatch resolves every job independently (a bad job is a typed
// per-job error, never a batch failure) and collapses exact duplicates
// — equal content addresses — onto the first job with their key. That
// is the whole plan: the distinct jobs enter the admission queue in
// request order and dispatch in that order.
func (s *Server) planBatch(jobs []client.AnalyzeRequest) *plannedBatch {
	pb := &plannedBatch{
		results: make([]client.BatchJobResult, len(jobs)),
		states:  make([]*batchJob, len(jobs)),
		stats:   client.BatchStats{Submitted: len(jobs), ScheduleOrder: []int{}},
	}
	leaders := make(map[string]int, len(jobs))
	groups := make(map[string]bool)
	for i, jr := range jobs {
		pb.results[i].Index = i
		job, herr := s.resolve(jr)
		if herr != nil {
			pb.results[i].Error = &client.ErrorResponse{Error: herr.code, Message: herr.msg}
			continue
		}
		pb.results[i].Key = job.Key
		lead, dup := leaders[job.Key]
		if dup {
			pb.stats.Deduped++
		} else {
			lead = i
			leaders[job.Key] = i
			groups[job.GroupKey()] = true
			pb.stats.ScheduleOrder = append(pb.stats.ScheduleOrder, i)
		}
		pb.states[i] = &batchJob{job: job, lead: lead}
	}
	pb.stats.Groups = len(groups)
	return pb
}

// dispatch is the one dispatch loop of both batch endpoints: every
// distinct job is acquired in request order under one batch-level
// deadline carved from the server budget, so the whole sweep can hold
// the workers no longer than a single request could. A job served from
// the LRU gets its result here; the others share a call, started
// through startJob when this batch leads it or joined when identical
// work is already in flight. It returns the cancel functions of the
// jobs this batch queued.
func (s *Server) dispatch(pb *plannedBatch) []func() {
	var cancels []func()
	deadline := time.Now().Add(s.cfg.Budget)
	for _, idx := range pb.stats.ScheduleOrder {
		st := pb.states[idx]
		ana, ok, call, leader := s.cache.Acquire(st.job.Key)
		if ok {
			pb.results[idx].Cached = true
			pb.results[idx].Analysis = ana
			pb.stats.CacheHits++
			continue
		}
		st.call = call
		if !leader {
			continue
		}
		if cancel, err := s.startJob(call, st.job, deadline); err == nil {
			pb.stats.Executed++
			cancels = append(cancels, cancel)
		}
	}
	return cancels
}

// deliver hands every job's final result to complete exactly once:
// invalid jobs, LRU hits and their duplicates at once, and jobs riding
// a call — duplicates included — from their own goroutine when the
// call finishes. The returned WaitGroup is done after the last
// delivery.
func (pb *plannedBatch) deliver(complete func(int, client.BatchJobResult)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i, st := range pb.states {
		if st == nil {
			complete(i, pb.results[i])
			continue
		}
		res := pb.results[st.lead]
		res.Index = i
		res.Deduped = i != st.lead
		call := pb.states[st.lead].call
		if call == nil {
			complete(i, res)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-call.Done
			if call.Err != nil {
				res.Error = jobError(call.Err)
			} else {
				res.Analysis = call.Val
			}
			complete(i, res)
		}()
	}
	return &wg
}

// handleAnalyzeBatch is POST /analyze/batch: a whole sweep in one
// round-trip. Jobs are resolved individually (a bad job is a typed
// per-job error, never a batch failure), exact duplicates collapse
// onto one execution, the distinct jobs are dispatched through the
// admission queue under one batch-level deadline carved from the server
// budget, and results return as a per-job array in request order with
// the batch's accounting in the envelope.
//
// With ?async=1 the batch becomes a streaming handle instead: the
// response is an immediate 202 with the handle, and per-job results
// flow through GET /batch/{handle}/events (SSE) or poll via
// GET /batch/{handle} as each job completes.
func (s *Server) handleAnalyzeBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	var req client.BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	if len(req.Jobs) == 0 {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "bad_request", "batch needs at least one job")
		return
	}
	if len(req.Jobs) > s.cfg.BatchMax {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "batch_too_large",
			fmt.Sprintf("batch carries %d jobs, limit is %d (-batch-max)", len(req.Jobs), s.cfg.BatchMax))
		return
	}
	if s.draining.Load() {
		s.metrics.IncBatchRejected()
		writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining.Error())
		return
	}
	start := time.Now()
	pb := s.planBatch(req.Jobs)
	if async := r.URL.Query().Get("async"); async != "" && async != "0" && async != "false" {
		s.handleBatchAsync(w, pb)
		return
	}

	s.dispatch(pb)
	// A fresh slice: deliver still reads pb.results while its
	// goroutines complete.
	results := make([]client.BatchJobResult, len(pb.results))
	wg := pb.deliver(func(i int, res client.BatchJobResult) { results[i] = res })

	// The batch is settled — folded into /metrics — once its last call
	// completes, whether or not the client is still waiting: a
	// disconnected client abandons only the response, while executions
	// continue for the cache and other waiters.
	rejected := ""
	settled := make(chan struct{})
	go func() {
		defer close(settled)
		wg.Wait()
		for i := range results {
			if results[i].Error != nil {
				pb.stats.Errors++
			}
		}
		// Whole-batch overload mirrors the single-job rejection: when
		// every scheduled job died at admission, the batch answers
		// 429/503 with Retry-After instead of a per-job result array.
		if code, all := uniformAdmissionFailure(results, pb.stats.ScheduleOrder); all {
			rejected = code
			s.metrics.IncBatchRejected()
			return
		}
		s.metrics.ObserveBatch(pb.stats)
	}()
	select {
	case <-settled:
	case <-r.Context().Done():
		return
	}

	if rejected != "" {
		status := http.StatusTooManyRequests
		if rejected == "draining" {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, rejected,
			fmt.Sprintf("all %d scheduled jobs rejected at admission", len(pb.stats.ScheduleOrder)))
		return
	}
	writeJSON(w, http.StatusOK, client.BatchResponse{
		Jobs:      results,
		Stats:     pb.stats,
		ElapsedMs: msSince(start),
	})
}

// jobError maps an analysis or admission error onto the typed per-job
// entry, carrying the same retry hint a single-job rejection would.
func jobError(err error) *client.ErrorResponse {
	status, code := ErrorStatus(err)
	er := &client.ErrorResponse{Error: code, Message: err.Error()}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		er.RetryAfterSeconds = 1
	}
	return er
}

// uniformAdmissionFailure reports whether every scheduled job failed
// with the same admission rejection ("queue_full" or "draining"), and
// which one.
func uniformAdmissionFailure(results []client.BatchJobResult, order []int) (string, bool) {
	if len(order) == 0 {
		return "", false
	}
	code := ""
	for _, idx := range order {
		er := results[idx].Error
		if er == nil || (er.Error != "queue_full" && er.Error != "draining") {
			return "", false
		}
		if code == "" {
			code = er.Error
		} else if code != er.Error {
			return "", false
		}
	}
	return code, true
}
