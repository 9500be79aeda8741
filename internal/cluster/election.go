package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ElectorState is where a coordinator stands in the election.
type ElectorState string

const (
	// StateFollower: another node holds a valid lease; watch it.
	StateFollower ElectorState = "follower"
	// StateCandidate: the lease looks free or expired; try to take it.
	StateCandidate ElectorState = "candidate"
	// StateLeader: this node holds the lease and renews it.
	StateLeader ElectorState = "leader"
)

// ElectorConfig configures an Elector.
type ElectorConfig struct {
	// ID is this coordinator's identity.
	ID NodeID
	// Store is the shared lease arbiter.
	Store LeaseStore
	// TTL is the leadership lease duration (default 2s).
	TTL time.Duration
	// Every is the step interval — renew cadence as leader, poll
	// cadence otherwise (default TTL/4).
	Every time.Duration
}

func (c ElectorConfig) withDefaults() ElectorConfig {
	if c.TTL <= 0 {
		c.TTL = 2 * time.Second
	}
	if c.Every <= 0 {
		c.Every = c.TTL / 4
	}
	return c
}

// Elector is the lease-based leader election loop one coordinator
// runs: a follower/candidate/leader state machine over a LeaseStore.
// Followers watch the lease; when it expires or frees they become
// candidates and TryAcquire; the winner leads and renews, and a failed
// renewal (lease lost, store unreachable) steps straight back down to
// follower. Every acquisition bumps the term, which fences all the
// leader's writes.
type Elector struct {
	cfg ElectorConfig

	mu        sync.Mutex
	state     ElectorState
	term      uint64 // term we lead under (valid while state == StateLeader)
	elections uint64 // times this node won an election
	resigned  bool   // one-shot: release at the next step
}

// NewElector returns an Elector in the follower state.
func NewElector(cfg ElectorConfig) (*Elector, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: elector needs an ID")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: elector needs a lease store")
	}
	return &Elector{cfg: cfg, state: StateFollower}, nil
}

// Leading reports whether this node currently holds the lease, and the
// term it leads under.
func (e *Elector) Leading() (bool, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state == StateLeader, e.term
}

// State returns the current state, leadership term, and election count.
func (e *Elector) State() (ElectorState, uint64, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state, e.term, e.elections
}

// Resign makes the leader release its lease at the next step, forcing
// a failover without waiting out the TTL. A no-op on non-leaders.
func (e *Elector) Resign() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resigned = true
}

// Step advances the state machine once at now. It is the whole
// election algorithm; Run just calls it on a ticker. Returns the state
// after the step.
func (e *Elector) Step(now time.Time) ElectorState {
	e.mu.Lock()
	defer e.mu.Unlock()

	switch e.state {
	case StateLeader:
		if e.resigned {
			e.resigned = false
			e.cfg.Store.Release(e.cfg.ID, e.term)
			e.state = StateFollower
			return e.state
		}
		if _, ok, err := e.cfg.Store.Renew(e.cfg.ID, e.term, now, e.cfg.TTL); err != nil || !ok {
			// Lease lost or arbiter unreachable: stop acting as leader
			// immediately. The term fence protects anything already sent.
			e.state = StateFollower
		}
	case StateCandidate:
		lease, won, err := e.cfg.Store.TryAcquire(e.cfg.ID, now, e.cfg.TTL)
		if err != nil {
			e.state = StateFollower
			return e.state
		}
		if won {
			e.term = lease.Term
			e.elections++
			e.state = StateLeader
		} else {
			e.state = StateFollower
		}
	default: // StateFollower
		e.resigned = false
		lease, held, err := e.cfg.Store.Get()
		if err != nil {
			return e.state
		}
		if !held || lease.ExpiredAt(now) || lease.Owner == e.cfg.ID {
			e.state = StateCandidate
		}
	}
	return e.state
}

// Run steps the elector every cfg.Every until ctx ends, releasing any
// held lease on the way out so a standby takes over promptly.
func (e *Elector) Run(ctx context.Context) {
	t := time.NewTicker(e.cfg.Every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			e.mu.Lock()
			if e.state == StateLeader {
				e.cfg.Store.Release(e.cfg.ID, e.term)
				e.state = StateFollower
			}
			e.mu.Unlock()
			return
		case now := <-t.C:
			e.Step(now)
		}
	}
}
