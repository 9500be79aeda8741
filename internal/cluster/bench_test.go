package cluster

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkRingLookup measures the scheduler's routing hot path: every
// dispatched job hashes its grouping key onto the ring once, so this
// bound is paid per job even on a healthy fleet.
func BenchmarkRingLookup(b *testing.B) {
	r := NewRing()
	for i := 0; i < 16; i++ {
		r.Add(NodeID(fmt.Sprintf("worker-%d", i)))
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("benchmark-%d\x00", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Lookup(keys[i%len(keys)]); !ok {
			b.Fatal("empty ring")
		}
	}
}

// BenchmarkRingSuccessors measures the requeue path's preference-order
// walk — paid only on failover, but inside the lease-expiry window, so
// it must stay cheap.
func BenchmarkRingSuccessors(b *testing.B) {
	r := NewRing()
	for i := 0; i < 16; i++ {
		r.Add(NodeID(fmt.Sprintf("worker-%d", i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.Successors("pagerank\x00"); len(got) != 16 {
			b.Fatalf("successors = %d members", len(got))
		}
	}
}

// BenchmarkHeartbeat measures the registry's lease-renewal hot path:
// every worker hits this on every heartbeat interval, so coordinator
// overhead scales with fleet size times this cost.
func BenchmarkHeartbeat(b *testing.B) {
	now := time.Unix(0, 0)
	r := NewRegistry(2*time.Second, func() time.Time { return now })
	ids := make([]NodeID, 16)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("worker-%d", i))
		r.Register(ids[i], "http://127.0.0.1:0")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Heartbeat(ids[i%len(ids)]) {
			b.Fatal("heartbeat from registered worker rejected")
		}
	}
}

// BenchmarkRegistryPick measures dispatch's worker selection with a
// populated avoid set — the shape the retry loop sees mid-failover.
func BenchmarkRegistryPick(b *testing.B) {
	now := time.Unix(0, 0)
	r := NewRegistry(2*time.Second, func() time.Time { return now })
	for i := 0; i < 16; i++ {
		r.Register(NodeID(fmt.Sprintf("worker-%d", i)), "http://127.0.0.1:0")
	}
	avoid := map[NodeID]bool{"worker-3": true, "worker-7": true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := r.Pick("kmeans\x00", avoid); !ok {
			b.Fatal("no pick from live registry")
		}
	}
}
