package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	counterminer "counterminer"
	"counterminer/internal/serve"
	"counterminer/pkg/client"
)

// retryPause is the wait before re-picking when every live worker has
// already failed a job.
const retryPause = 50 * time.Millisecond

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// ID is this coordinator's identity.
	ID NodeID
	// Elector is the leader-election loop; nil means this is the only
	// coordinator and it always leads (term 1).
	Elector *Elector
	// WorkerTTL is the heartbeat lease granted to workers (default 2s).
	WorkerTTL time.Duration
	// Caller issues worker RPCs (default: plain HTTP).
	Caller Caller
	// MaxAttempts bounds dispatch retries per job (default 10). It is a
	// loop safeguard, not the delivery deadline — the request context's
	// compute budget is what actually bounds a dispatch in time.
	MaxAttempts int
	// Sleep waits for d or ctx (default: a timer; tests inject).
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 2 * time.Second
	}
	if c.Caller == nil {
		c.Caller = &HTTPCaller{}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 10
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return c
}

// Coordinator is the fleet's front half. It plugs into a serve.Server
// as its dispatch function: every admitted job is routed by its
// grouping key over the consistent-hash ring to a live worker, and the
// admission queue, result cache, and batch planner all keep working
// unchanged above it.
//
// Failure handling is built around one invariant: a job is
// content-addressed, so executing it twice is harmless everywhere
// results are keyed — the worker's cache singleflights re-deliveries,
// and the run store replaces rather than appends. That lets the
// coordinator be aggressive: when a worker's lease expires with jobs
// in flight, those dispatches are woken immediately and re-sent to the
// ring's next node, and if the original worker was merely partitioned
// and answers late, first-completion-wins — the late answer is dropped
// and counted, never double-delivered.
type Coordinator struct {
	cfg      CoordinatorConfig
	registry *Registry

	mu       sync.Mutex
	inflight map[string]*dispatch // job key → live dispatch

	dispatches  atomic.Uint64
	requeues    atomic.Uint64
	rpcFailures atomic.Uint64
	lateDropped atomic.Uint64
}

// NewCoordinator returns a coordinator ready to wire into a server.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: coordinator needs an ID")
	}
	c := &Coordinator{
		cfg:      cfg,
		registry: NewRegistry(cfg.WorkerTTL, nil),
		inflight: make(map[string]*dispatch),
	}
	c.registry.onExpire = c.requeueWorker
	return c, nil
}

// Registry exposes worker membership (tests and handlers).
func (c *Coordinator) Registry() *Registry { return c.registry }

// leading reports whether this coordinator may dispatch, and under
// which term.
func (c *Coordinator) leading() (bool, uint64) {
	if c.cfg.Elector == nil {
		return true, 1
	}
	return c.cfg.Elector.Leading()
}

// dispatch tracks one job's journey through the fleet. Completion is
// first-wins: whichever attempt (current or abandoned) finishes first
// publishes the result; everything after is dropped and counted.
type dispatch struct {
	mu        sync.Mutex
	worker    NodeID        // currently assigned worker ("" = none)
	deathc    chan struct{} // closed when the assigned worker's lease expires
	completed bool
	ana       *counterminer.Analysis
	err       error
	done      chan struct{}
}

// assign points the dispatch at a worker and arms a fresh death
// signal for it.
func (d *dispatch) assign(w NodeID) chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.worker = w
	d.deathc = make(chan struct{})
	return d.deathc
}

// signalDeath wakes the dispatch if it is currently assigned to dead.
func (d *dispatch) signalDeath(dead NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.worker == dead && d.deathc != nil {
		close(d.deathc)
		d.deathc = nil
		d.worker = ""
	}
}

// complete publishes the result if none has been published yet.
// Returns false for a late completion (already completed — dropped).
func (d *dispatch) complete(ana *counterminer.Analysis, err error) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.completed {
		return false
	}
	d.completed = true
	d.ana, d.err = ana, err
	close(d.done)
	return true
}

func (d *dispatch) result() (*counterminer.Analysis, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ana, d.err
}

// requeueWorker is the registry's onExpire hook: wake every in-flight
// dispatch assigned to the dead worker so it re-routes immediately
// instead of waiting out an RPC timeout.
func (c *Coordinator) requeueWorker(dead NodeID) {
	c.mu.Lock()
	pending := make([]*dispatch, 0, len(c.inflight))
	for _, d := range c.inflight {
		pending = append(pending, d)
	}
	c.mu.Unlock()
	for _, d := range pending {
		d.signalDeath(dead)
	}
}

// attemptOutcome is one dispatch attempt's verdict.
type attemptOutcome struct {
	// settled: the attempt produced a final answer (published via
	// d.complete by the attempt goroutine).
	settled bool
	// avoid, when retrying, excludes the attempted worker from the next
	// pick (it is dead, killed, or overloaded).
	avoid bool
	// err is the retryable failure, for the exhaustion message.
	err error
}

// Dispatch routes one job to the fleet and waits for its result. It is
// the function a coordinator-role server installs via SetDispatch, so
// the serve layer's singleflight guarantees at most one Dispatch per
// job key at a time.
func (c *Coordinator) Dispatch(ctx context.Context, job serve.Job) (*counterminer.Analysis, error) {
	if leading, _ := c.leading(); !leading {
		return nil, serve.ErrNotLeader
	}
	if c.registry.Live() == 0 {
		return nil, serve.ErrNoWorkers
	}

	d := &dispatch{done: make(chan struct{})}
	c.mu.Lock()
	c.inflight[job.Key] = d
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight, job.Key)
		c.mu.Unlock()
	}()

	avoid := make(map[NodeID]bool)
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		leading, term := c.leading()
		if !leading {
			d.complete(nil, serve.ErrNotLeader)
			return d.result()
		}
		worker, addr, ok := c.registry.Pick(job.GroupKey(), avoid)
		if !ok {
			if c.registry.Live() == 0 {
				d.complete(nil, serve.ErrNoWorkers)
				return d.result()
			}
			// Every live worker already failed this job; give the fleet
			// a beat and start over.
			avoid = make(map[NodeID]bool)
			if err := c.cfg.Sleep(ctx, retryPause); err != nil {
				d.complete(nil, err)
				return d.result()
			}
			continue
		}

		deathc := d.assign(worker)
		c.dispatches.Add(1)
		if attempt > 0 {
			c.requeues.Add(1)
		}

		outc := make(chan attemptOutcome, 1)
		go c.attempt(ctx, d, outc, addr, worker, ExecRequest{
			Job: job, Term: term, Attempt: attempt, Coordinator: c.cfg.ID,
		})

		select {
		case <-d.done:
			return d.result()
		case out := <-outc:
			if out.settled {
				return d.result()
			}
			if out.avoid {
				avoid[worker] = true
			}
			lastErr = out.err
		case <-deathc:
			// The assigned worker's lease expired mid-flight. Its attempt
			// goroutine keeps running: if the worker was only partitioned
			// and answers first, that answer wins; otherwise it is dropped.
			avoid[worker] = true
			lastErr = fmt.Errorf("cluster: worker %s lease expired in flight", worker)
		case <-ctx.Done():
			d.complete(nil, ctx.Err())
			return d.result()
		}
	}
	d.complete(nil, fmt.Errorf("cluster: job %s undeliverable after %d attempts: %w",
		job.Key, c.cfg.MaxAttempts, lastErr))
	return d.result()
}

// attempt issues one exec RPC and classifies the answer. Final answers
// are published through d.complete (first-completion-wins); retryable
// failures are reported on outc.
func (c *Coordinator) attempt(ctx context.Context, d *dispatch, outc chan<- attemptOutcome, addr string, worker NodeID, req ExecRequest) {
	var resp ExecResponse
	err := c.cfg.Caller.Call(ctx, addr, "exec", req, &resp)

	settle := func(ana *counterminer.Analysis, rerr error) {
		if !d.complete(ana, rerr) {
			c.lateDropped.Add(1)
		}
		outc <- attemptOutcome{settled: true}
	}

	switch {
	case err == nil && resp.Analysis != nil:
		settle(resp.Analysis, nil)
	case err == nil && resp.Error != nil:
		if retryableWorkerError(resp.Error) {
			// The worker's own admission queue rejected the job without
			// running it: spill to the ring's next node.
			outc <- attemptOutcome{avoid: true, err: errorFromWire(resp.Error)}
			return
		}
		settle(nil, errorFromWire(resp.Error))
	case err == nil:
		settle(nil, fmt.Errorf("cluster: worker %s returned an empty exec envelope", worker))
	default:
		var re *RPCError
		switch {
		case errors.As(err, &re) && re.Code == "stale_term":
			// A worker fenced us: a newer coordinator holds the lease.
			settle(nil, fmt.Errorf("%s: %w", re.Message, serve.ErrNotLeader))
		case errors.As(err, &re) && re.Code == "worker_killed":
			c.registry.Drop(worker)
			outc <- attemptOutcome{avoid: true, err: err}
		default:
			// Transport failure: dropped request, dropped reply, dead
			// connection. The job may or may not have run — idempotency
			// makes re-dispatch safe either way.
			c.rpcFailures.Add(1)
			outc <- attemptOutcome{avoid: true, err: err}
		}
	}
}

// Run reaps expired worker leases every quarter-TTL until ctx ends.
// (The elector, if any, has its own Run loop.)
func (c *Coordinator) Run(ctx context.Context) {
	every := c.cfg.WorkerTTL / 4
	if every <= 0 {
		every = 50 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			c.registry.Reap(now)
		}
	}
}

// Reap expires worker leases at now (tests drive this directly).
func (c *Coordinator) Reap(now time.Time) []NodeID { return c.registry.Reap(now) }

// Ready is the coordinator's readiness check: leading with at least
// one live worker.
func (c *Coordinator) Ready() error {
	if leading, _ := c.leading(); !leading {
		return fmt.Errorf("not the cluster leader")
	}
	if c.registry.Live() == 0 {
		return fmt.Errorf("no live workers registered")
	}
	return nil
}

// Stats reports the coordinator's /metrics contribution.
func (c *Coordinator) Stats() client.ClusterCounters {
	regs, hbs, exps := c.registry.Counters()
	cc := client.ClusterCounters{
		Role:                   "coordinator",
		NodeID:                 string(c.cfg.ID),
		WorkersLive:            c.registry.Live(),
		Registrations:          regs,
		Heartbeats:             hbs,
		LeaseExpirations:       exps,
		Dispatches:             c.dispatches.Load(),
		Requeues:               c.requeues.Load(),
		RPCFailures:            c.rpcFailures.Load(),
		LateCompletionsDropped: c.lateDropped.Load(),
	}
	if c.cfg.Elector == nil {
		cc.Leading = true
		cc.Term = 1
	} else {
		state, term, elections := c.cfg.Elector.State()
		cc.Leading = state == StateLeader
		cc.Term = term
		cc.Elections = elections
	}
	return cc
}

// Routes returns the coordinator's /cluster/* handlers, keyed by
// pattern, for mounting on a serve.Server.
func (c *Coordinator) Routes() map[string]http.Handler {
	return map[string]http.Handler{
		"/cluster/register":  http.HandlerFunc(c.handleRegister),
		"/cluster/heartbeat": http.HandlerFunc(c.handleHeartbeat),
	}
}

// handleRegister is POST /cluster/register.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeRPC(w, r, &req) {
		return
	}
	if req.ID == "" || req.Addr == "" {
		rpcStatus(w, http.StatusBadRequest, "bad_register", "register needs id and addr")
		return
	}
	leading, term := c.leading()
	if !leading {
		writeRPC(w, RegisterResponse{NotLeader: true, Term: term})
		return
	}
	c.registry.Register(req.ID, req.Addr)
	writeRPC(w, RegisterResponse{
		Accepted: true,
		Term:     term,
		LeaseMs:  c.registry.TTL().Milliseconds(),
	})
}

// handleHeartbeat is POST /cluster/heartbeat.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeRPC(w, r, &req) {
		return
	}
	leading, term := c.leading()
	if !leading {
		writeRPC(w, HeartbeatResponse{NotLeader: true, Term: term})
		return
	}
	writeRPC(w, HeartbeatResponse{OK: c.registry.Heartbeat(req.ID), Term: term})
}

// decodeRPC decodes a POST JSON body, answering the request itself on
// failure.
func decodeRPC(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		rpcStatus(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(into); err != nil {
		rpcStatus(w, http.StatusBadRequest, "bad_json", err.Error())
		return false
	}
	return true
}

// writeRPC writes a 200 JSON reply.
func writeRPC(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// rpcStatus writes a non-200 JSON refusal in the RPCError vocabulary.
func rpcStatus(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": code, "message": msg})
}
