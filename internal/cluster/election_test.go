package cluster

import (
	"testing"
	"time"
)

// newTestElector builds an elector over the shared store with a fixed
// TTL, driven entirely by explicit Step calls.
func newTestElector(t *testing.T, id NodeID, store LeaseStore, ttl time.Duration) *Elector {
	t.Helper()
	e, err := NewElector(ElectorConfig{ID: id, Store: store, TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestElectorWinsAndRenews(t *testing.T) {
	store := NewMemoryLease()
	e := newTestElector(t, "c1", store, time.Second)
	t0 := time.Unix(1000, 0)

	if st := e.Step(t0); st != StateCandidate {
		t.Fatalf("first step = %v, want candidate", st)
	}
	if st := e.Step(t0); st != StateLeader {
		t.Fatalf("second step = %v, want leader", st)
	}
	leading, term := e.Leading()
	if !leading || term != 1 {
		t.Fatalf("leading=%v term=%d, want true/1", leading, term)
	}
	// Renewals keep it leading well past the original TTL.
	for i := 1; i <= 10; i++ {
		if st := e.Step(t0.Add(time.Duration(i) * 500 * time.Millisecond)); st != StateLeader {
			t.Fatalf("renewal step %d = %v", i, st)
		}
	}
}

func TestElectorFailoverOnExpiry(t *testing.T) {
	store := NewMemoryLease()
	a := newTestElector(t, "c1", store, time.Second)
	b := newTestElector(t, "c2", store, time.Second)
	t0 := time.Unix(1000, 0)

	a.Step(t0)
	a.Step(t0) // a leads at term 1
	// b watches and stays follower while the lease is live.
	if st := b.Step(t0.Add(100 * time.Millisecond)); st != StateFollower {
		t.Fatalf("b under live lease = %v, want follower", st)
	}

	// a dies (stops stepping). After the TTL, b notices, runs, and wins
	// at a higher term.
	tLate := t0.Add(2 * time.Second)
	if st := b.Step(tLate); st != StateCandidate {
		t.Fatalf("b after expiry = %v, want candidate", st)
	}
	if st := b.Step(tLate); st != StateLeader {
		t.Fatalf("b acquire = %v, want leader", st)
	}
	_, term := b.Leading()
	if term != 2 {
		t.Fatalf("failover term = %d, want 2", term)
	}

	// a comes back from the dead: its renew fails and it steps down, and
	// as a candidate it cannot take b's live lease.
	if st := a.Step(tLate.Add(10 * time.Millisecond)); st != StateFollower {
		t.Fatalf("returned a = %v, want follower (renew must fail)", st)
	}
	if leading, _ := a.Leading(); leading {
		t.Fatal("deposed leader still reports leading")
	}
}

func TestElectorResignForcesPromptFailover(t *testing.T) {
	store := NewMemoryLease()
	a := newTestElector(t, "c1", store, time.Hour) // TTL long enough that only Resign can move it
	b := newTestElector(t, "c2", store, time.Hour)
	t0 := time.Unix(1000, 0)

	a.Step(t0)
	a.Step(t0)
	a.Resign()
	if st := a.Step(t0.Add(time.Millisecond)); st != StateFollower {
		t.Fatalf("post-resign state = %v, want follower", st)
	}
	// b takes over immediately — no TTL wait — at a higher term.
	b.Step(t0.Add(2 * time.Millisecond))
	if st := b.Step(t0.Add(2 * time.Millisecond)); st != StateLeader {
		t.Fatalf("b after resign = %v, want leader", st)
	}
	if _, term := b.Leading(); term != 2 {
		t.Fatalf("term after resign-takeover = %d, want 2", term)
	}
}
