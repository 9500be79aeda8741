package cluster

import (
	"sync"
	"time"
)

// workerInfo is the coordinator's view of one registered worker.
type workerInfo struct {
	id     NodeID
	addr   string
	expiry time.Time
}

// Registry is the coordinator's worker membership: who is registered,
// where to reach them, and when their heartbeat lease lapses. It keeps
// the consistent-hash ring in lockstep with the live set, and tells
// the dispatcher (via onExpire) when a worker it may have in-flight
// jobs on has died.
type Registry struct {
	ttl   time.Duration
	clock func() time.Time

	mu      sync.Mutex
	workers map[NodeID]*workerInfo
	ring    *Ring

	// onExpire observes each lease expiry (set once, before use).
	onExpire func(id NodeID)

	registrations uint64
	heartbeats    uint64
	expirations   uint64
}

// NewRegistry returns a registry declaring workers dead after ttl
// without a heartbeat. clock defaults to time.Now.
func NewRegistry(ttl time.Duration, clock func() time.Time) *Registry {
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	if clock == nil {
		clock = time.Now
	}
	return &Registry{
		ttl:     ttl,
		clock:   clock,
		workers: make(map[NodeID]*workerInfo),
		ring:    NewRing(),
	}
}

// TTL is the worker lease duration.
func (r *Registry) TTL() time.Duration { return r.ttl }

// Register adds (or refreshes) a worker. Re-registration with a new
// address — a worker restarted on a new port — just updates the
// address; its ring positions are a function of its ID, so its keys
// stay put.
func (r *Registry) Register(id NodeID, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registrations++
	w, ok := r.workers[id]
	if !ok {
		w = &workerInfo{id: id}
		r.workers[id] = w
		r.ring.Add(id)
	}
	w.addr = addr
	w.expiry = r.clock().Add(r.ttl)
}

// Heartbeat renews a worker's lease. False means the worker is
// unknown (expired, or this coordinator is new after a failover) and
// must re-register.
func (r *Registry) Heartbeat(id NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return false
	}
	r.heartbeats++
	w.expiry = r.clock().Add(r.ttl)
	return true
}

// Reap expires every worker whose lease lapsed at now, removing it
// from the ring and notifying onExpire (outside the lock) so the
// dispatcher can requeue its in-flight jobs. Returns the expired IDs.
func (r *Registry) Reap(now time.Time) []NodeID {
	r.mu.Lock()
	var dead []NodeID
	for id, w := range r.workers {
		if !now.Before(w.expiry) {
			dead = append(dead, id)
			delete(r.workers, id)
			r.ring.Remove(id)
			r.expirations++
		}
	}
	onExpire := r.onExpire
	r.mu.Unlock()
	if onExpire != nil {
		for _, id := range dead {
			onExpire(id)
		}
	}
	return dead
}

// Drop removes a worker immediately (the dispatcher calls this when a
// worker answers "killed" — no point waiting out its lease). The
// onExpire callback is NOT invoked: the dispatcher is already handling
// the job that provoked the drop, and Reap covers any others next tick.
func (r *Registry) Drop(id NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.workers[id]; !ok {
		return
	}
	delete(r.workers, id)
	r.ring.Remove(id)
	r.expirations++
}

// Pick routes a grouping key: the ring's preferred live worker for the
// key, skipping any in avoid (workers that already failed this job).
// ok is false when no live worker remains outside avoid.
func (r *Registry) Pick(group string, avoid map[NodeID]bool) (id NodeID, addr string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cand := range r.ring.Successors(group) {
		if avoid[cand] {
			continue
		}
		if w, live := r.workers[cand]; live {
			return cand, w.addr, true
		}
	}
	return "", "", false
}

// Addr returns a registered worker's address.
func (r *Registry) Addr(id NodeID) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return "", false
	}
	return w.addr, true
}

// Live reports the number of registered workers.
func (r *Registry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.workers)
}

// Counters reports (registrations, heartbeats, expirations).
func (r *Registry) Counters() (uint64, uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.registrations, r.heartbeats, r.expirations
}
