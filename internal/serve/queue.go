package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"counterminer/internal/parallel"
	"counterminer/internal/stream"
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
// pipeline: a bounded cross-batch priority scheduler feeding a fixed
// worker pool (run on internal/parallel, the same pool primitive as
// the analysis engine itself). Jobs are filed under their
// benchmark-identity grouping key (Job.GroupKey), so jobs from
// different requests — or different batch handles — that share a
// benchmark dispatch adjacently and the collector's memoized trace
// generators stay warm across clients (see stream.Scheduler for the
// ordering invariants). Every job runs under the deadline its caller
// carved from the server budget, so one slow analysis can never hold a
// worker forever.
//
// Shutdown is graceful and split by state: Drain lets jobs that are
// already executing finish, while jobs still waiting in the scheduler
// get their contexts canceled — they then travel the pipeline's
// ordinary *CancelError path and their waiters see a typed
// cancellation, not a hang.
type Queue struct {
	sched *stream.Scheduler[*queuedJob]
	depth int
	done  chan struct{}

	mu       sync.Mutex
	draining bool

	active   atomic.Int64
	executed atomic.Int64
}

// queuedJob is one admitted unit of work with its deadline context.
// popped flips when a worker claims the job: a cancel-if-queued (batch
// handle cancellation) only fires while it is still false.
type queuedJob struct {
	ctx    context.Context
	cancel context.CancelFunc
	run    func(context.Context) func()
	popped atomic.Bool
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
	q := &Queue{
		sched: stream.NewScheduler[*queuedJob](),
		depth: depth,
		done:  make(chan struct{}),
	}
	go func() {
		defer close(q.done)
		// One "item" per worker, each running the pull loop until the
		// scheduler closes: the analysis engine's pool primitive
		// doubles as the server's resident worker pool.
		parallel.ForEachWorker(workers, workers, func(_, _ int) error {
			q.loop()
			return nil
		})
	}()
	return q
}

// loop is one worker: pull the highest-priority job, claim it (so
// Drain and handle cancellation no longer touch it), execute it under
// its deadline context, release the timer, count it, and only then
// publish its completion and mark the group idle — a caller woken by
// the result always finds the job counted in Executed.
func (q *Queue) loop() {
	for {
		j, group, ok := q.sched.Pop()
		if !ok {
			return
		}
		j.popped.Store(true)
		q.active.Add(1)
		complete := j.run(j.ctx)
		j.cancel()
		q.active.Add(-1)
		q.executed.Add(1)
		if complete != nil {
			complete()
		}
		q.sched.Done(group)
	}
}

// Submit admits run into the queue under the grouping key group, or
// rejects it with ErrQueueFull / ErrDraining without blocking. An
// admitted job runs exactly once on some worker, under a context that
// expires at deadline (zero means none). run may return a completion —
// the step that publishes its result — which the worker calls after the
// job is counted in Executed.
//
// On success Submit also returns cancel, which cancels the job's
// context only while it still waits in the scheduler — the batch-handle
// cancellation path: a queued job then executes immediately into the
// pipeline's *CancelError, while a job already claimed by a worker is
// left to finish normally. Drain cancels every queued job the same way.
func (q *Queue) Submit(group string, deadline time.Time, run func(context.Context) (complete func())) (cancel func(), err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return nil, ErrDraining
	}
	// Mirror of the old channel-buffer admission: a job is admitted
	// while fewer than depth jobs wait, plus one per idle worker (a
	// send to an idle receiver never consumed buffer space).
	if q.sched.Len() >= q.depth+q.sched.Waiters() {
		return nil, ErrQueueFull
	}
	var ctx context.Context
	if !deadline.IsZero() {
		ctx, cancel = context.WithDeadline(context.Background(), deadline)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j := &queuedJob{ctx: ctx, cancel: cancel, run: run}
	if _, ok := q.sched.Enqueue(group, j); !ok {
		cancel()
		return nil, ErrDraining
	}
	return func() {
		if !j.popped.Load() {
			j.cancel()
		}
	}, nil
}

// Drain shuts the queue down gracefully: new submissions are rejected
// with ErrDraining, jobs already executing run to completion, and jobs
// still waiting in the scheduler have their contexts canceled (they
// still execute, but observe cancellation immediately and return
// through the pipeline's *CancelError path). Drain blocks until every
// worker has exited; it is idempotent.
func (q *Queue) Drain() {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		<-q.done
		return
	}
	q.draining = true
	// Flag, cancellations, and close happen under q.mu so no Submit can
	// slip a job in between: every queued job at this instant is
	// canceled, and nothing is admitted after.
	q.sched.ForEach(func(j *queuedJob) { j.cancel() })
	q.sched.Close()
	q.mu.Unlock()
	<-q.done
}

// Depth reports how many admitted jobs are waiting for a worker.
func (q *Queue) Depth() int { return q.sched.Len() }

// Capacity reports the buffer depth the queue admits beyond the
// executing jobs.
func (q *Queue) Capacity() int { return q.depth }

// Active reports how many jobs are executing right now.
func (q *Queue) Active() int { return int(q.active.Load()) }

// Executed reports how many jobs have finished executing (successfully
// or not) since the queue started.
func (q *Queue) Executed() int { return int(q.executed.Load()) }

// GroupDepths reports the scheduler's live per-grouping-key gauges
// (depth, executing, oldest wait), sorted by key — the observability
// the single global depth gauge cannot give: a starved or inverted
// group is visible directly.
func (q *Queue) GroupDepths() []stream.GroupDepth { return q.sched.Groups() }
