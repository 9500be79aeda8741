package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinBudget is how long an idle helper keeps polling for its team's
// next fan-out before it parks, and how long Run polls for the last
// items of a fan-out before it blocks. The serial work between two
// level fan-outs of a tree is a few to a few tens of microseconds, so
// a helper that spins this long is still awake for the next level;
// helpers that parked at once made EIR measurably slower (DESIGN.md §6).
const spinBudget = 100 * time.Microsecond

// Team is a fixed set of resident helper goroutines that runs a
// sequence of fan-outs, for callers that fan out many times in a row
// with short serial gaps between, where ForEach's goroutine start per
// call would dominate. The goroutine that calls Run works on the
// fan-out too, so a Team of w workers holds w-1 helpers and a Team of
// one holds none. Between fan-outs a helper spins for spinBudget, then
// parks until the next Run or Close.
//
// Each Run publishes a fresh job with its own function, size and
// counters, so a helper still finishing one fan-out can never claim an
// index of the next. Run is not safe for concurrent use; one goroutine
// issues the fan-outs. Close stops every helper and must be called once
// the fan-outs are done.
type Team struct {
	workers int
	// cur is the latest published job, nil before the first; helpers
	// poll it for a change.
	cur atomic.Pointer[teamJob]
	// parked counts helpers blocked, or about to block, on wake.
	parked atomic.Int32
	mu     sync.Mutex
	wake   sync.Cond
	wg     sync.WaitGroup
}

// teamJob is one fan-out: fn over [0, n), or, when stop is set, the
// signal for every helper to return. It is never reused.
type teamJob struct {
	fn func(i int)
	n  int64
	// next is the next index to claim; pending counts the items not
	// yet finished, and whoever finishes the last one closes done.
	next, pending atomic.Int64
	done          chan struct{}
	stop          bool
}

// NewTeam starts a team of workers (Workers-resolved) goroutines,
// counting the one that calls Run.
func NewTeam(workers int) *Team {
	t := &Team{workers: Workers(workers)}
	t.wake.L = &t.mu
	for w := 1; w < t.workers; w++ {
		t.wg.Add(1)
		go t.help()
	}
	return t
}

// Workers returns the team's size, the calling goroutine included.
func (t *Team) Workers() int { return t.workers }

// Run calls fn(i) for every i in [0, n) on the calling goroutine and
// the team's helpers, and returns once every call has returned. As
// with ForEach, each call must write only to its own index-addressed
// slots. A team of one, or a single item, runs inline.
func (t *Team) Run(n int, fn func(i int)) {
	if t.workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &teamJob{fn: fn, n: int64(n), done: make(chan struct{})}
	j.pending.Store(int64(n))
	t.publish(j)
	j.work()
	for start := time.Now(); j.pending.Load() != 0; runtime.Gosched() {
		if time.Since(start) >= spinBudget {
			<-j.done
			return
		}
	}
}

// Close stops every helper and returns once all have exited. A Run
// after Close executes entirely on the calling goroutine.
func (t *Team) Close() {
	t.publish(&teamJob{stop: true})
	t.wg.Wait()
}

// publish makes j the current job and wakes the parked helpers. A
// helper parks only after it has counted itself in parked and seen no
// new job, and the atomics are sequentially consistent, so either it
// sees j or publish sees it parked and broadcasts.
func (t *Team) publish(j *teamJob) {
	t.cur.Store(j)
	if t.parked.Load() > 0 {
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
	}
}

// help is a helper's loop: wait for a job other than the last one it
// worked on, work on it, repeat until the stop job.
func (t *Team) help() {
	defer t.wg.Done()
	var last *teamJob
	for {
		j := t.await(last)
		if j.stop {
			return
		}
		j.work()
		last = j
	}
}

// await returns the first published job other than last: it polls for
// spinBudget, yielding the processor between polls so an oversubscribed
// team does not starve the goroutine that is about to publish, then
// parks.
func (t *Team) await(last *teamJob) *teamJob {
	for start := time.Now(); time.Since(start) < spinBudget; runtime.Gosched() {
		if j := t.cur.Load(); j != last {
			return j
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parked.Add(1)
	defer t.parked.Add(-1)
	for {
		if j := t.cur.Load(); j != last {
			return j
		}
		t.wake.Wait()
	}
}

// work claims and runs j's items until none is left.
func (j *teamJob) work() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.fn(int(i))
		if j.pending.Add(-1) == 0 {
			close(j.done)
		}
	}
}
