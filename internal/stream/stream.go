// Package stream is counterminerd's streaming batch subsystem: batch
// handles whose per-job results flow to clients as each job completes,
// instead of when the whole batch does.
//
// CounterMiner's workflow is inherently incremental — the paper mines
// thousands of per-benchmark runs and its picture improves
// monotonically as more cleaned profiles land — so a sweep's results
// should render progressively, the way BayesPerf streams corrected
// counter estimates online rather than batch-at-the-end. The package
// provides three cooperating parts:
//
//   - Handle: one asynchronous batch. Every job completion becomes a
//     sequence-numbered event; events are retained in a bounded
//     per-handle ring buffer (evicted payloads are rebuilt on demand
//     from the per-job results, so a resume never loses data), and the
//     terminal event carries the batch's final accounting. Subscribers
//     attach with a cursor — the SSE layer's Last-Event-ID — and pull
//     exactly the events they have not seen, so a dropped consumer
//     replays missed completions and every result is delivered exactly
//     once per stream.
//   - Registry: the server's table of handles, bounding how many may be
//     open at once and how many finished ones are retained for late
//     polling, with the counters behind /metrics.stream.
//   - Scheduler (sched.go): the cross-batch priority queue that
//     replaces FIFO admission, keyed by the batch planner's
//     benchmark-identity grouping key so interleaved sweeps from
//     different clients still dispatch benchmark-adjacent.
package stream

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"counterminer/pkg/client"
)

// ErrHandleLimit reports an async batch rejected because the registry
// already holds the configured maximum of open handles. The HTTP layer
// maps it to a 429 with a retry hint: handles finish, capacity returns.
var ErrHandleLimit = errors.New("stream: too many open batch handles")

// Handle statuses, as reported by snapshots and the terminal event.
const (
	// StatusOpen: jobs are still pending.
	StatusOpen = "open"
	// StatusDone: every job completed and the terminal event was
	// published.
	StatusDone = "done"
	// StatusCanceled: the handle was canceled; remaining jobs completed
	// through the pipeline's *CancelError path before the terminal
	// event.
	StatusCanceled = "canceled"
)

// Per-job statuses inside a snapshot.
const (
	JobPending = "pending"
	JobDone    = "done"
	JobError   = "error"
)

// Event names on the SSE wire.
const (
	// EventResult carries one client.BatchJobResult as its data.
	EventResult = "result"
	// EventDone is the terminal event; its data is a client.StreamDone.
	EventDone = "done"
)

// Event is one sequence-numbered frame of a handle's stream. Seq starts
// at 1 and increments per job completion; the terminal event's Seq is
// total+1. Data is the encoded JSON payload, cached in the ring so a
// fanout to N subscribers marshals once.
type Event struct {
	Seq  uint64
	Name string
	Data []byte
}

// Subscriber is one attached event consumer. C receives a (coalesced)
// signal whenever new events are available; the consumer then pulls
// them with EventsSince. The pull model is what makes delivery
// exactly-once under any timing: a slow consumer lags, it never drops.
type Subscriber struct {
	C chan struct{}
}

// Registry is the server's handle table.
type Registry struct {
	mu        sync.Mutex
	openCap   int
	retainCap int
	ringSize  int
	handles   map[string]*Handle
	doneOrder []string // terminal handle IDs, oldest first (retention LRU)

	// counters is the /metrics.stream section, counted in place; its
	// OpenHandles is also the count the open-handle cap checks.
	counters client.StreamCounters
}

// NewRegistry returns a registry admitting at most openCap concurrently
// open handles, retaining at most retainCap finished ones for late
// polling, with ringSize cached event frames per handle. Non-positive
// arguments select 32, 64, and 256 respectively.
func NewRegistry(openCap, retainCap, ringSize int) *Registry {
	if openCap <= 0 {
		openCap = 32
	}
	if retainCap <= 0 {
		retainCap = 64
	}
	if ringSize <= 0 {
		ringSize = 256
	}
	return &Registry{
		openCap:   openCap,
		retainCap: retainCap,
		ringSize:  ringSize,
		handles:   make(map[string]*Handle),
	}
}

// Open creates a handle for a batch of total jobs whose accounting
// skeleton (dedup/group/schedule numbers, known at admission) is stats;
// the error count is filled in as completions land. It fails with
// ErrHandleLimit at the open-handle cap.
func (r *Registry) Open(total int, stats client.BatchStats) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters.OpenHandles >= r.openCap {
		return nil, fmt.Errorf("%w (%d open, limit %d)", ErrHandleLimit, r.counters.OpenHandles, r.openCap)
	}
	h := &Handle{
		id:      newHandleID(),
		reg:     r,
		created: time.Now(),
		jobs:    make([]client.BatchJobResult, total),
		done:    make([]bool, total),
		ring:    make([]Event, r.ringSize),
		stats:   stats,
		subs:    make(map[*Subscriber]struct{}),
	}
	for i := range h.jobs {
		h.jobs[i].Index = i
	}
	r.handles[h.id] = h
	r.counters.OpenHandles++
	r.counters.HandlesOpened++
	return h, nil
}

// Get resolves a handle ID.
func (r *Registry) Get(id string) (*Handle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.handles[id]
	return h, ok
}

// Drain is the registry's part of graceful shutdown: it waits up to
// grace for open handles to finish naturally (by then the job queue has
// drained, so completions are in flight), then force-finishes any
// straggler so every open stream receives a terminal event before the
// listener closes.
func (r *Registry) Drain(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if len(r.openHandles()) == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, h := range r.openHandles() {
		h.ForceFinish("draining", "server draining before the job completed")
	}
}

func (r *Registry) openHandles() []*Handle {
	r.mu.Lock()
	all := make([]*Handle, 0, len(r.handles))
	for _, h := range r.handles {
		all = append(all, h)
	}
	r.mu.Unlock()
	// Terminal takes h.mu, and a handle calls into the registry while
	// holding h.mu, so it must not be called under r.mu.
	var out []*Handle
	for _, h := range all {
		if !h.Terminal() {
			out = append(out, h)
		}
	}
	return out
}

// markFinished moves a handle from the open count to the retention
// list, evicting the oldest finished handles beyond the retention cap.
func (r *Registry) markFinished(h *Handle, canceled bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters.OpenHandles--
	if canceled {
		r.counters.HandlesCanceled++
	} else {
		r.counters.HandlesFinished++
	}
	r.doneOrder = append(r.doneOrder, h.id)
	for len(r.doneOrder) > r.retainCap {
		id := r.doneOrder[0]
		r.doneOrder = r.doneOrder[1:]
		if _, ok := r.handles[id]; ok {
			delete(r.handles, id)
			r.counters.HandlesExpired++
		}
	}
}

// AddEventsSent counts frames actually written to subscribers.
func (r *Registry) AddEventsSent(n int) {
	r.mu.Lock()
	r.counters.EventsSent += uint64(n)
	r.mu.Unlock()
}

func (r *Registry) addRingEviction() {
	r.mu.Lock()
	r.counters.RingEvictions++
	r.mu.Unlock()
}

func (r *Registry) addRingRebuild() {
	r.mu.Lock()
	r.counters.RingRebuilds++
	r.mu.Unlock()
}

func (r *Registry) addLateCompletion() {
	r.mu.Lock()
	r.counters.LateCompletions++
	r.mu.Unlock()
}

func (r *Registry) addSubscriber(delta int) {
	r.mu.Lock()
	r.counters.Subscribers += delta
	r.mu.Unlock()
}

// Stats assembles the /metrics.stream section; queueGroups is the
// scheduler's per-group gauge contribution, passed through so the
// section is one document.
func (r *Registry) Stats(queueGroups []client.StreamGroupGauge) client.StreamCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.counters
	st.RetainedHandles = len(r.doneOrder)
	st.QueueGroups = queueGroups
	return st
}

// newHandleID returns a 24-hex-char random handle identifier. Handle
// IDs are operational names, not analysis content, so randomness here
// does not touch the engine's determinism contract.
func newHandleID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// time-derived ID rather than refuse service.
		return fmt.Sprintf("h%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Handle is one asynchronous batch: per-job results for polling, the
// completion-ordered event log for streaming, and the subscriber set.
type Handle struct {
	id      string
	reg     *Registry
	created time.Time

	mu        sync.Mutex
	jobs      []client.BatchJobResult
	done      []bool
	order     []int   // job index per completion, order[seq-1]
	ring      []Event // cached frames, slot (seq-1) % len
	completed int
	terminal  bool
	canceled  bool
	stats     client.BatchStats
	subs      map[*Subscriber]struct{}
	onCancel  func()
}

// ID returns the handle's identifier.
func (h *Handle) ID() string { return h.id }

// Total returns the batch's job count.
func (h *Handle) Total() int { return len(h.jobs) }

// Terminal reports whether the terminal event has been published.
func (h *Handle) Terminal() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.terminal
}

// SetStats replaces the handle's accounting with the dispatch-time
// final numbers (cache hits and executed counts are only known after
// the admission walk). The error count accumulated from completions
// already delivered is preserved. Call before publishing the handle's
// terminal event — in practice, before any watcher starts delivering.
func (h *Handle) SetStats(st client.BatchStats) {
	h.mu.Lock()
	st.Errors = h.stats.Errors
	h.stats = st
	h.mu.Unlock()
}

// SetOnCancel installs the hook Cancel runs once (outside the handle
// lock): the serving layer uses it to cancel the handle's queued jobs
// through the admission queue's context path. Call before the handle is
// published to clients.
func (h *Handle) SetOnCancel(f func()) { h.onCancel = f }

// Complete records job idx's result, publishes its event, and notifies
// subscribers. The first completion per index wins; duplicates — a late
// cluster re-dispatch answer, a racing force-finish — are counted and
// dropped, which is what keeps every stream exactly-once. When the last
// job lands the handle finishes and the terminal event follows
// immediately.
func (h *Handle) Complete(idx int, res client.BatchJobResult) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if idx < 0 || idx >= len(h.jobs) || h.done[idx] {
		h.reg.addLateCompletion()
		return
	}
	h.completeLocked(idx, res)
	h.notifyLocked()
}

// completeLocked is Complete's body under h.mu (shared with
// ForceFinish).
func (h *Handle) completeLocked(idx int, res client.BatchJobResult) {
	res.Index = idx
	h.jobs[idx] = res
	h.done[idx] = true
	h.completed++
	h.order = append(h.order, idx)
	if res.Error != nil {
		h.stats.Errors++
	}
	seq := uint64(h.completed)
	data, _ := json.Marshal(&res)
	h.pushRingLocked(Event{Seq: seq, Name: EventResult, Data: data})
	if h.completed == len(h.jobs) {
		h.finishLocked()
	}
}

// finishLocked publishes the terminal event and moves the handle to
// the registry's retention list. Both happen under h.mu (lock order is
// always handle before registry), so a consumer that reads the
// terminal event already finds the handle counted as finished.
func (h *Handle) finishLocked() {
	h.terminal = true
	status := StatusDone
	if h.canceled {
		status = StatusCanceled
	}
	data, _ := json.Marshal(&client.StreamDone{Status: status, Stats: h.stats})
	h.pushRingLocked(Event{Seq: uint64(len(h.jobs)) + 1, Name: EventDone, Data: data})
	h.reg.markFinished(h, h.canceled)
}

// pushRingLocked caches an encoded frame, evicting the slot's previous
// occupant (evictions only cost a re-marshal on resume, never data).
func (h *Handle) pushRingLocked(ev Event) {
	slot := int((ev.Seq - 1) % uint64(len(h.ring)))
	if h.ring[slot].Seq != 0 {
		h.reg.addRingEviction()
	}
	h.ring[slot] = ev
}

// eventAt returns the frame for seq, from the ring when cached,
// otherwise rebuilt from the per-job result (or the final stats for the
// terminal seq).
func (h *Handle) eventAtLocked(seq uint64) Event {
	slot := int((seq - 1) % uint64(len(h.ring)))
	if h.ring[slot].Seq == seq {
		return h.ring[slot]
	}
	h.reg.addRingRebuild()
	if h.terminal && seq == uint64(len(h.jobs))+1 {
		status := StatusDone
		if h.canceled {
			status = StatusCanceled
		}
		data, _ := json.Marshal(&client.StreamDone{Status: status, Stats: h.stats})
		return Event{Seq: seq, Name: EventDone, Data: data}
	}
	idx := h.order[seq-1]
	res := h.jobs[idx]
	data, _ := json.Marshal(&res)
	return Event{Seq: seq, Name: EventResult, Data: data}
}

// EventsSince returns every event with sequence greater than cursor, in
// order, and whether the batch's terminal event is included (after
// delivering such a slice the stream is complete). A consumer resuming
// with its last-seen ID replays exactly the completions it missed.
func (h *Handle) EventsSince(cursor uint64) ([]Event, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	last := uint64(h.completed)
	if h.terminal {
		last = uint64(len(h.jobs)) + 1
	}
	if cursor >= last {
		return nil, h.terminal
	}
	evs := make([]Event, 0, last-cursor)
	for seq := cursor + 1; seq <= last; seq++ {
		evs = append(evs, h.eventAtLocked(seq))
	}
	return evs, h.terminal
}

// Cancel marks the handle canceled and runs the cancellation hook once
// (canceling queued jobs through the admission queue's context, so they
// complete through the pipeline's *CancelError path). Executing jobs
// finish normally; the terminal event fires when every job has landed,
// with status "canceled". It reports whether this call performed the
// cancellation.
func (h *Handle) Cancel() bool {
	h.mu.Lock()
	if h.terminal || h.canceled {
		h.mu.Unlock()
		return false
	}
	h.canceled = true
	hook := h.onCancel
	h.mu.Unlock()
	if hook != nil {
		hook()
	}
	return true
}

// ForceFinish completes every still-pending job with the given typed
// error and publishes the terminal event. The drain path uses it so a
// shutdown flushes a terminal event to every open stream even if a
// completion was lost.
func (h *Handle) ForceFinish(code, msg string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.terminal {
		return
	}
	for idx := range h.jobs {
		if h.done[idx] {
			continue
		}
		res := h.jobs[idx]
		res.Error = &client.ErrorResponse{Error: code, Message: msg}
		h.completeLocked(idx, res)
	}
	if !h.terminal && h.completed == len(h.jobs) {
		// A zero-job handle has nothing to complete; finish it directly.
		h.finishLocked()
	}
	h.notifyLocked()
}

// Snapshot renders the handle for polling: overall status, per-job
// state, and — once terminal — the final stats.
func (h *Handle) Snapshot() client.BatchSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := client.BatchSnapshot{
		Handle:    h.id,
		Status:    StatusOpen,
		Total:     len(h.jobs),
		Completed: h.completed,
		Jobs:      make([]client.BatchJobState, len(h.jobs)),
	}
	if h.canceled {
		snap.Status = StatusCanceled
	} else if h.terminal {
		snap.Status = StatusDone
	}
	for i, res := range h.jobs {
		st := client.BatchJobState{BatchJobResult: res}
		switch {
		case !h.done[i]:
			st.Status = JobPending
		case res.Error != nil:
			st.Status = JobError
		default:
			st.Status = JobDone
		}
		snap.Jobs[i] = st
	}
	if h.terminal {
		stats := h.stats
		snap.Stats = &stats
	}
	return snap
}

// Subscribe attaches a consumer; its channel is signaled (coalesced)
// whenever new events are available. Pair with Unsubscribe.
func (h *Handle) Subscribe() *Subscriber {
	sub := &Subscriber{C: make(chan struct{}, 1)}
	h.mu.Lock()
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	h.reg.addSubscriber(1)
	// Wake immediately: events may already be waiting.
	sub.C <- struct{}{}
	return sub
}

// Unsubscribe detaches a consumer.
func (h *Handle) Unsubscribe(sub *Subscriber) {
	h.mu.Lock()
	_, ok := h.subs[sub]
	delete(h.subs, sub)
	h.mu.Unlock()
	if ok {
		h.reg.addSubscriber(-1)
	}
}

// notifyLocked signals every subscriber, coalescing: a subscriber with
// a pending signal is not signaled again (it will pull everything new
// anyway).
func (h *Handle) notifyLocked() {
	for sub := range h.subs {
		select {
		case sub.C <- struct{}{}:
		default:
		}
	}
}
