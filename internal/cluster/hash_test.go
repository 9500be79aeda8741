package cluster

import (
	"fmt"
	"testing"
)

func TestRingLookupDeterministicAcrossJoinOrder(t *testing.T) {
	a := NewRing()
	b := NewRing()
	nodes := []NodeID{"w1", "w2", "w3", "w4"}
	for _, n := range nodes {
		a.Add(n)
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		b.Add(nodes[i])
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("bench-%d\x00co", i)
		ga, _ := a.Lookup(key)
		gb, _ := b.Lookup(key)
		if ga != gb {
			t.Fatalf("key %q: order-dependent placement %s vs %s", key, ga, gb)
		}
	}
}

func TestRingStableKeysSameNode(t *testing.T) {
	r := NewRing()
	r.Add("w1")
	r.Add("w2")
	r.Add("w3")
	key := "wordcount\x00"
	first, ok := r.Lookup(key)
	if !ok {
		t.Fatal("lookup on populated ring failed")
	}
	for i := 0; i < 10; i++ {
		if got, _ := r.Lookup(key); got != first {
			t.Fatalf("lookup %d: %s, want stable %s", i, got, first)
		}
	}
}

func TestRingRemoveMovesOnlyDepartedKeys(t *testing.T) {
	r := NewRing()
	for _, n := range []NodeID{"w1", "w2", "w3"} {
		r.Add(n)
	}
	before := make(map[string]NodeID)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("bench-%d", i)
		before[key], _ = r.Lookup(key)
	}
	r.Remove("w2")
	for key, owner := range before {
		now, ok := r.Lookup(key)
		if !ok {
			t.Fatal("ring empty after one removal")
		}
		if owner != "w2" && now != owner {
			t.Fatalf("key %q moved %s→%s though %s stayed", key, owner, now, owner)
		}
		if now == "w2" {
			t.Fatalf("key %q still routed to removed node", key)
		}
	}
}

func TestRingDistributionRoughlyBalanced(t *testing.T) {
	r := NewRing()
	nodes := []NodeID{"w1", "w2", "w3"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := make(map[NodeID]int)
	const keys = 3000
	for i := 0; i < keys; i++ {
		owner, _ := r.Lookup(fmt.Sprintf("bench-%d", i))
		counts[owner]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 0.10 || share > 0.60 {
			t.Errorf("node %s owns %.0f%% of keys — ring badly skewed (%v)", n, share*100, counts)
		}
	}
}

func TestRingSuccessorsOwnerFirstAllDistinct(t *testing.T) {
	r := NewRing()
	for _, n := range []NodeID{"w1", "w2", "w3"} {
		r.Add(n)
	}
	key := "sort\x00"
	owner, _ := r.Lookup(key)
	succ := r.Successors(key)
	if len(succ) != 3 {
		t.Fatalf("successors = %v, want all 3 members", succ)
	}
	if succ[0] != owner {
		t.Fatalf("successors[0] = %s, want owner %s", succ[0], owner)
	}
	seen := make(map[NodeID]bool)
	for _, n := range succ {
		if seen[n] {
			t.Fatalf("duplicate node %s in successors %v", n, succ)
		}
		seen[n] = true
	}
}

func TestRingEmptyAndIdempotentMutation(t *testing.T) {
	r := NewRing()
	if _, ok := r.Lookup("x"); ok {
		t.Error("lookup on empty ring reported ok")
	}
	if s := r.Successors("x"); s != nil {
		t.Errorf("successors on empty ring = %v", s)
	}
	r.Add("w1")
	r.Add("w1")
	if r.Len() != 1 {
		t.Errorf("len after double add = %d", r.Len())
	}
	r.Remove("w9")
	r.Remove("w1")
	r.Remove("w1")
	if r.Len() != 0 {
		t.Errorf("len after removals = %d", r.Len())
	}
}
