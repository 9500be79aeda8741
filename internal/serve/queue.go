package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"counterminer/internal/parallel"
)

// Admission-control sentinels. The HTTP layer maps them to typed JSON
// rejections: ErrQueueFull → 429 (back off and retry), ErrDraining →
// 503 (the server is shutting down; retry against another instance).
var (
	// ErrQueueFull reports a job rejected because the bounded queue is
	// at capacity. Rejecting at admission is what keeps overload
	// graceful: the server sheds work instead of buffering unboundedly.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining reports a job rejected because the queue is shutting
	// down and no longer admits work.
	ErrDraining = errors.New("serve: draining, not accepting new jobs")
)

// Queue is the admission-controlled job queue in front of the analysis
// pipeline: a bounded FIFO feeding a fixed worker pool (run on
// internal/parallel, the same pool primitive as the analysis engine
// itself). Every job runs under the deadline its caller carved from the
// server budget, so one slow analysis can never hold a worker forever.
//
// Shutdown is graceful and split by state: Drain lets jobs that are
// already executing finish, while jobs still waiting in the queue get
// their contexts canceled — they then travel the pipeline's ordinary
// *CancelError path and their waiters see a typed cancellation, not a
// hang.
type Queue struct {
	depth int
	done  chan struct{}

	// mu guards the waiting jobs, the idle-worker count and the
	// draining flag; cond wakes idle workers when a job arrives or the
	// queue drains.
	mu       sync.Mutex
	cond     *sync.Cond
	jobs     []*queuedJob // waiting, oldest first
	idle     int          // workers blocked in pop
	draining bool

	active   atomic.Int64
	executed atomic.Int64
}

// queuedJob is one admitted unit of work with its deadline context.
// popped is set under Queue.mu when a worker claims the job: a
// cancel-if-queued (batch handle cancellation) only fires while it is
// still false.
type queuedJob struct {
	ctx    context.Context
	cancel context.CancelFunc
	run    func(context.Context) func()
	popped bool
}

// NewQueue starts a queue with the given worker pool size and buffer
// depth (jobs waiting beyond the ones executing; 0 means a job is only
// admitted when a worker is idle).
func NewQueue(workers, depth int) *Queue {
	if workers <= 0 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	q := &Queue{depth: depth, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	go func() {
		defer close(q.done)
		// One "item" per worker, each running the pull loop until the
		// queue drains: the analysis engine's pool primitive doubles as
		// the server's resident worker pool.
		parallel.ForEachWorker(workers, workers, func(_, _ int) error {
			q.loop()
			return nil
		})
	}()
	return q
}

// loop is one worker: claim the oldest job (so Drain and handle
// cancellation no longer touch it), execute it under its deadline
// context, release the timer, count it, and only then publish its
// completion — a caller woken by the result always finds the job
// counted in Executed.
func (q *Queue) loop() {
	for {
		j, ok := q.pop()
		if !ok {
			return
		}
		q.active.Add(1)
		complete := j.run(j.ctx)
		j.cancel()
		q.active.Add(-1)
		q.executed.Add(1)
		if complete != nil {
			complete()
		}
	}
}

// pop blocks until a job waits, then claims the oldest one. Once the
// queue drains, pop still hands out what is left and then reports
// false.
func (q *Queue) pop() (*queuedJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 {
		if q.draining {
			return nil, false
		}
		q.idle++
		q.cond.Wait()
		q.idle--
	}
	j := q.jobs[0]
	copy(q.jobs, q.jobs[1:])
	q.jobs[len(q.jobs)-1] = nil
	q.jobs = q.jobs[:len(q.jobs)-1]
	j.popped = true
	return j, true
}

// Submit admits run into the queue, or rejects it with ErrQueueFull /
// ErrDraining without blocking. An admitted job runs exactly once on
// some worker, under a context that expires at deadline (zero means
// none). run may return a completion — the step that publishes its
// result — which the worker calls after the job is counted in
// Executed.
//
// On success Submit also returns cancel, which cancels the job's
// context only while it still waits in the queue — the batch-handle
// cancellation path: a queued job then executes immediately into the
// pipeline's *CancelError, while a job already claimed by a worker is
// left to finish normally. Drain cancels every queued job the same way.
func (q *Queue) Submit(deadline time.Time, run func(context.Context) (complete func())) (cancel func(), err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return nil, ErrDraining
	}
	// A job is admitted while fewer than depth jobs wait, plus one per
	// idle worker (a job handed to an idle worker never used buffer
	// space).
	if len(q.jobs) >= q.depth+q.idle {
		return nil, ErrQueueFull
	}
	var ctx context.Context
	if !deadline.IsZero() {
		ctx, cancel = context.WithDeadline(context.Background(), deadline)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j := &queuedJob{ctx: ctx, cancel: cancel, run: run}
	q.jobs = append(q.jobs, j)
	q.cond.Signal()
	return func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		if !j.popped {
			j.cancel()
		}
	}, nil
}

// Drain shuts the queue down gracefully: new submissions are rejected
// with ErrDraining, jobs already executing run to completion, and jobs
// still waiting in the queue have their contexts canceled (they still
// execute, but observe cancellation immediately and return through the
// pipeline's *CancelError path). Drain blocks until every worker has
// exited; it is idempotent.
func (q *Queue) Drain() {
	// Flag, cancellations and wakeup happen under q.mu so no Submit can
	// slip a job in between: every queued job at this instant is
	// canceled, and nothing is admitted after.
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		for _, j := range q.jobs {
			j.cancel()
		}
		q.cond.Broadcast()
	}
	q.mu.Unlock()
	<-q.done
}

// Depth reports how many admitted jobs are waiting for a worker.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// Capacity reports the buffer depth the queue admits beyond the
// executing jobs.
func (q *Queue) Capacity() int { return q.depth }

// Active reports how many jobs are executing right now.
func (q *Queue) Active() int { return int(q.active.Load()) }

// Executed reports how many jobs have finished executing (successfully
// or not) since the queue started.
func (q *Queue) Executed() int { return int(q.executed.Load()) }
