// Package cluster turns counterminerd into a coordinator/worker
// fleet. One daemon caps out at one machine's cores; the fleet splits
// the service into two roles that keep the single-node endpoint
// contract intact:
//
//   - the coordinator owns the front of the house — admission control,
//     the content-addressed result cache, and the batch planner all
//     stay in internal/serve — and replaces local pipeline execution
//     with dispatch: jobs are routed to workers by consistent hashing
//     over the scheduler's benchmark-identity grouping key, so
//     collector memo reuse survives distribution;
//   - workers run the pipeline. They register with the coordinator and
//     keep a heartbeat lease alive; when a lease expires (worker death
//     or partition), the coordinator requeues that worker's in-flight
//     jobs onto the ring's next node. Retries are idempotent because
//     jobs are content-addressed: a worker that comes back from a
//     partition and answers late is deduplicated, never double-counted,
//     and the run store keys records by (benchmark, runID, mode), so a
//     re-executed job replaces rather than duplicates.
//
// Coordinator failover is lease-based leader election (Elector): a
// follower/candidate/leader state machine over a LeaseStore, with a
// term that increments on every acquisition. Writes are term-fenced —
// every exec RPC carries the coordinator's term and workers reject
// terms below the highest they have seen, so a deposed coordinator
// that comes back from a partition cannot dispatch stale work.
//
// The determinism contract is the point of all this machinery: the
// same jobs produce bit-identical Analyses (Stages/ElapsedMs scrubbed)
// on any topology under any chaos seed, only slower. internal/fault's
// NodeChaos injects the cluster-plane failures (killed workers,
// delayed or dropped heartbeats, dropped RPCs) that the soak test uses
// to prove it.
package cluster

import (
	"errors"
	"fmt"

	counterminer "counterminer"
	"counterminer/internal/serve"
	"counterminer/pkg/client"
)

// NodeID identifies one node (coordinator or worker) in the fleet.
type NodeID string

// RegisterRequest is POST /cluster/register: a worker announcing
// itself to a coordinator.
type RegisterRequest struct {
	// ID is the worker's identity; Addr its base URL as the
	// coordinator should reach it.
	ID   NodeID `json:"id"`
	Addr string `json:"addr"`
}

// RegisterResponse is the coordinator's answer.
type RegisterResponse struct {
	// Accepted reports the worker is registered and on the ring.
	Accepted bool `json:"accepted"`
	// NotLeader explains a refusal: this coordinator does not hold the
	// leader lease; try the next join address.
	NotLeader bool `json:"not_leader,omitempty"`
	// Term is the coordinator's current coordination term.
	Term uint64 `json:"term"`
	// LeaseMs is the worker's lease in milliseconds: miss heartbeats
	// for this long and the coordinator declares the worker dead.
	LeaseMs int64 `json:"lease_ms,omitempty"`
}

// HeartbeatRequest is POST /cluster/heartbeat: a worker renewing its
// lease.
type HeartbeatRequest struct {
	ID NodeID `json:"id"`
	// Seq is the worker's heartbeat sequence number (observability and
	// chaos keying).
	Seq uint64 `json:"seq"`
}

// HeartbeatResponse is the coordinator's answer.
type HeartbeatResponse struct {
	// OK false means the coordinator does not know this worker (it
	// expired, or the coordinator is new after a failover): re-register.
	OK        bool   `json:"ok"`
	NotLeader bool   `json:"not_leader,omitempty"`
	Term      uint64 `json:"term"`
}

// ExecRequest is POST /cluster/exec: the coordinator dispatching one
// content-addressed job to a worker.
type ExecRequest struct {
	Job serve.Job `json:"job"`
	// Term fences the write: workers reject terms below the highest
	// they have observed, so a deposed coordinator cannot dispatch.
	Term uint64 `json:"term"`
	// Attempt counts re-dispatches of this job (0 = first).
	Attempt int `json:"attempt"`
	// Coordinator identifies the dispatching node.
	Coordinator NodeID `json:"coordinator"`
}

// ExecResponse is the worker's answer: exactly one of Analysis and
// Error is set. Error carries terminal analysis outcomes (quorum not
// met, canceled, …) in the same vocabulary as the public API;
// node-level refusals (killed worker, stale term, worker overload)
// travel as non-200 statuses instead, because they mean "try another
// node", not "this job failed".
type ExecResponse struct {
	Analysis *counterminer.Analysis `json:"analysis,omitempty"`
	Error    *client.ErrorResponse  `json:"error,omitempty"`
	// Worker identifies the executing node.
	Worker NodeID `json:"worker"`
}

// errorFromWire reconstructs a typed error from a worker's terminal
// ExecResponse.Error so error identity survives the network hop: the
// code names its sentinel in serve.ErrorCodes, and the coordinator's
// serve layer maps the reconstructed error back to exactly the status
// and code the worker observed.
func errorFromWire(er *client.ErrorResponse) error {
	for _, c := range serve.ErrorCodes {
		if c.Code == er.Error {
			return fmt.Errorf("%s: %w", er.Message, c.Err)
		}
	}
	return fmt.Errorf("cluster: worker error: %s", er.Message)
}

// wireError encodes a worker-side terminal error for the exec
// envelope using the serve layer's canonical mapping.
func wireError(err error) *client.ErrorResponse {
	_, code := serve.ErrorStatus(err)
	return &client.ErrorResponse{Error: code, Message: err.Error()}
}

// retryableWorkerError reports whether a terminal-looking worker error
// should instead be retried on another node: a worker whose own
// admission queue is full or draining has rejected the job without
// running it, so the coordinator spills to the ring's next worker
// rather than bouncing the overload to the client.
func retryableWorkerError(er *client.ErrorResponse) bool {
	return er != nil && (er.Error == "queue_full" || er.Error == "draining")
}

// ErrKilled is what a chaos-killed worker answers every exec with —
// the in-process stand-in for a dead TCP connection.
var ErrKilled = errors.New("cluster: worker killed")
