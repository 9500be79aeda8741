package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring over worker nodes. The coordinator
// routes every job by its benchmark-identity grouping key, so all jobs
// of one benchmark land on the same worker and reuse its memoized
// trace generator — and when a worker joins or dies, only the keys
// adjacent to its ring positions move, so the fleet's memo warmth
// survives membership churn instead of reshuffling wholesale.
//
// Placement is a pure function of the member set: the ring hashes
// node IDs, never insertion order or time, so every coordinator
// (including a freshly elected one) computes identical routes from an
// identical membership view.
type Ring struct {
	mu    sync.RWMutex
	keys  []uint64          // sorted virtual-node positions
	owner map[uint64]NodeID // position → node
	nodes map[NodeID]struct{}
}

// replicas is the virtual-node count per member; more virtual nodes
// smooth the key distribution.
const replicas = 64

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{
		owner: make(map[uint64]NodeID),
		nodes: make(map[NodeID]struct{}),
	}
}

// Add places a node on the ring. Adding a present node is a no-op.
func (r *Ring) Add(id NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[id]; ok {
		return
	}
	r.nodes[id] = struct{}{}
	for i := 0; i < replicas; i++ {
		h := hash64(fmt.Sprintf("%s#%d", id, i))
		if prev, ok := r.owner[h]; ok {
			// A virtual-node hash collision (vanishingly rare): resolve
			// deterministically so every coordinator agrees, whatever
			// order the nodes joined in.
			if prev <= id {
				continue
			}
		} else {
			r.keys = append(r.keys, h)
		}
		r.owner[h] = id
	}
	sort.Slice(r.keys, func(i, j int) bool { return r.keys[i] < r.keys[j] })
}

// Remove takes a node off the ring. Removing an absent node is a
// no-op.
func (r *Ring) Remove(id NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[id]; !ok {
		return
	}
	delete(r.nodes, id)
	kept := r.keys[:0]
	for _, h := range r.keys {
		if r.owner[h] == id {
			delete(r.owner, h)
			continue
		}
		kept = append(kept, h)
	}
	r.keys = kept
}

// Len reports the number of member nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Members lists the member nodes in sorted order.
func (r *Ring) Members() []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]NodeID, 0, len(r.nodes))
	for id := range r.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Lookup returns the node owning key, or false on an empty ring.
func (r *Ring) Lookup(key string) (NodeID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.keys) == 0 {
		return "", false
	}
	return r.owner[r.keys[r.search(key)]], true
}

// Successors returns every member in preference order for key: the
// owner first, then each distinct node met walking the ring clockwise.
// The coordinator's requeue path walks this order, so a job whose
// worker died moves to a stable, membership-determined fallback.
func (r *Ring) Successors(key string) []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.keys) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(r.nodes))
	seen := make(map[NodeID]struct{}, len(r.nodes))
	start := r.search(key)
	for i := 0; i < len(r.keys) && len(out) < len(r.nodes); i++ {
		id := r.owner[r.keys[(start+i)%len(r.keys)]]
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// search finds the index of the first virtual node at or clockwise
// from key's hash. Callers hold at least the read lock.
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= h })
	if i == len(r.keys) {
		return 0
	}
	return i
}

// hash64 is FNV-1a finished with the splitmix64 avalanche mixer: raw
// FNV over the short, similar strings virtual nodes hash ("w2#17")
// clusters badly on the ring, and the finalizer spreads those nearby
// inputs across the whole keyspace.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
