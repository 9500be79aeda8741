package stream

import (
	"container/heap"
	"sync"
	"time"
)

// Scheduler is the cross-batch priority queue behind counterminerd's
// admission: a heap of benchmark-identity groups ordered by
// (group-active, group-first-seen, submit-seq). Jobs from different
// batch handles that share a grouping key dispatch adjacently, so the
// collector's memoized trace generators stay warm across clients —
// the property the per-request batch planner established within one
// request, lifted to the whole server.
//
// The ordering is deterministic and starvation-free:
//
//   - group-active: a group with jobs currently executing sorts first,
//     so a job arriving for a warm group runs next instead of waiting
//     behind unrelated work (this is what preserves memo reuse when two
//     clients interleave sweeps);
//   - group-first-seen: among equally-active groups, the one whose
//     first job arrived earliest wins. A group's first-seen rank never
//     changes while it has work, so a stream of new groups can never
//     indefinitely displace an old one;
//   - submit-seq: within a group, strict submission order.
//
// For a set of jobs enqueued before dispatch begins, the pop order is a
// pure function of the enqueue order — independent of how many workers
// pop concurrently or when executions complete — which is what the
// workers-1/2/8 determinism tests pin down.
type Scheduler[T any] struct {
	mu      sync.Mutex
	cond    *sync.Cond
	groups  map[string]*schedGroup[T]
	heap    groupHeap[T]
	nextGrp uint64
	nextSeq uint64
	queued  int
	waiters int
	closed  bool
	popped  uint64
}

// schedItem is one queued unit with its global submission sequence and
// arrival time (the oldest-wait gauge's clock).
type schedItem[T any] struct {
	seq      uint64
	val      T
	enqueued time.Time
}

// schedGroup is one grouping key's state: its first-seen rank, how many
// of its jobs are executing right now, and its FIFO of queued jobs.
// idx is the group's position in the heap (-1 while it has nothing
// queued).
type schedGroup[T any] struct {
	key       string
	firstSeen uint64
	executing int
	queue     []schedItem[T]
	idx       int
}

// active reports whether the group has jobs executing — the top-level
// priority bit that keeps dispatch adjacent to warm generators.
func (g *schedGroup[T]) active() bool { return g.executing > 0 }

// groupHeap orders groups by (active desc, firstSeen asc). Only groups
// with queued jobs live in the heap.
type groupHeap[T any] []*schedGroup[T]

func (h groupHeap[T]) Len() int { return len(h) }
func (h groupHeap[T]) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.active() != b.active() {
		return a.active()
	}
	return a.firstSeen < b.firstSeen
}
func (h groupHeap[T]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *groupHeap[T]) Push(x any) {
	g := x.(*schedGroup[T])
	g.idx = len(*h)
	*h = append(*h, g)
}
func (h *groupHeap[T]) Pop() any {
	old := *h
	n := len(old)
	g := old[n-1]
	old[n-1] = nil
	g.idx = -1
	*h = old[:n-1]
	return g
}

// GroupDepth is one grouping key's live queue gauge: how many jobs
// wait, how many execute, and when the oldest waiter arrived (zero when
// none wait).
type GroupDepth struct {
	Group     string
	Depth     int
	Executing int
	Oldest    time.Time
}

// NewScheduler returns an empty scheduler.
func NewScheduler[T any]() *Scheduler[T] {
	s := &Scheduler[T]{groups: make(map[string]*schedGroup[T])}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Enqueue adds v under the given grouping key and returns its global
// submission sequence. Enqueue never blocks; admission control (how
// many jobs may wait) is the caller's policy, built on Len and Waiters.
// Enqueue after Close reports false and schedules nothing.
func (s *Scheduler[T]) Enqueue(group string, v T) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, false
	}
	g, ok := s.groups[group]
	if !ok {
		g = &schedGroup[T]{key: group, firstSeen: s.nextGrp, idx: -1}
		s.nextGrp++
		s.groups[group] = g
	}
	s.nextSeq++
	g.queue = append(g.queue, schedItem[T]{seq: s.nextSeq, val: v, enqueued: time.Now()})
	if g.idx < 0 {
		heap.Push(&s.heap, g)
	}
	s.queued++
	s.cond.Signal()
	return s.nextSeq, true
}

// Pop blocks until a job is available and returns the highest-priority
// one together with its grouping key; the caller must call Done(group)
// when the job finishes executing. After Close, Pop drains the
// remaining queued jobs in priority order and then reports ok=false.
func (s *Scheduler[T]) Pop() (v T, group string, ok bool) {
	v, group, _, ok = s.popTicket()
	return v, group, ok
}

// popTicket is Pop plus the dispatch ticket — the job's position in the
// global pop order, assigned under the scheduler lock. The determinism
// tests use it to reconstruct the exact dispatch order from concurrent
// poppers without a racy side channel.
func (s *Scheduler[T]) popTicket() (v T, group string, ticket uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.heap.Len() == 0 {
		if s.closed {
			return v, "", 0, false
		}
		s.waiters++
		s.cond.Wait()
		s.waiters--
	}
	g := s.heap[0]
	it := g.queue[0]
	// Shift rather than re-slice forever: the queue slice is reused.
	copy(g.queue, g.queue[1:])
	g.queue = g.queue[:len(g.queue)-1]
	s.queued--
	s.popped++
	wasActive := g.active()
	g.executing++
	if len(g.queue) == 0 {
		heap.Pop(&s.heap)
	} else if !wasActive {
		// The group just became active: its priority rose.
		heap.Fix(&s.heap, g.idx)
	}
	return it.val, g.key, s.popped, true
}

// Done reports that one previously popped job of the group finished
// executing. When the group's last execution ends its active bit drops
// (and, if nothing is queued, the group is forgotten — a later job
// under the same key starts a fresh first-seen rank).
func (s *Scheduler[T]) Done(group string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[group]
	if !ok {
		return
	}
	if g.executing > 0 {
		g.executing--
	}
	if g.executing == 0 {
		if len(g.queue) == 0 {
			delete(s.groups, group)
		} else if g.idx >= 0 {
			heap.Fix(&s.heap, g.idx)
		}
	}
}

// Close stops admission: subsequent Enqueues report false, and blocked
// Pops return once the queue is drained. Close is idempotent.
func (s *Scheduler[T]) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Len reports how many jobs are queued (not yet popped).
func (s *Scheduler[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Waiters reports how many Pop calls are blocked waiting for work —
// the idle-worker count the admission policy folds into its capacity.
func (s *Scheduler[T]) Waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters
}

// ForEach visits every queued (not yet popped) job under the
// scheduler's lock, in no particular order. The queue's drain path uses
// it to cancel pending contexts atomically with the draining flag.
func (s *Scheduler[T]) ForEach(f func(T)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.groups {
		for _, it := range g.queue {
			f(it.val)
		}
	}
}

// Groups reports the live per-group gauges, sorted by grouping key so
// the /metrics document is deterministic. Groups with executing jobs
// but nothing queued appear with Depth 0 — priority inversion is only
// observable if the executing side is visible too.
func (s *Scheduler[T]) Groups() []GroupDepth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GroupDepth, 0, len(s.groups))
	for key, g := range s.groups {
		gd := GroupDepth{Group: key, Depth: len(g.queue), Executing: g.executing}
		if len(g.queue) > 0 {
			gd.Oldest = g.queue[0].enqueued
		}
		out = append(out, gd)
	}
	// Insertion sort by key: group counts are small and this keeps the
	// package free of a sort import detour for one call site.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Group < out[j-1].Group; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
