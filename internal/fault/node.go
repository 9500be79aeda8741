package fault

import (
	"fmt"
	"time"
)

// Node-level chaos: the failure modes of a counterminerd fleet rather
// than of a single collection. Where Config injects faults into runs
// and series, NodeConfig injects them into the cluster plane — dropped
// coordinator↔worker RPCs, lost or delayed heartbeats, and workers
// that die mid-job. Decisions follow the same discipline as the rest
// of the package: every one is drawn from an RNG keyed purely by
// (Seed, identifiers), never by wall clock, so a chaos scenario can be
// replayed and reasoned about.
//
// NodeChaos is consumed through nil-safe methods: a nil *NodeChaos
// injects nothing, so the cluster plumbing can thread one pointer
// unconditionally.

// NodeConfig sets the node-level injection probabilities. All rates
// are in [0, 1]; the zero value injects nothing.
type NodeConfig struct {
	// Seed decorrelates the injection pattern, exactly like
	// Config.Seed.
	Seed int64
	// RPCDropRate is the per-call probability that an RPC is lost
	// before reaching the callee (the network ate the request).
	RPCDropRate float64
	// ReplyDropRate is the per-call probability that an RPC executes
	// on the callee but its reply is lost (the network ate the
	// response) — the caller sees a failure for work that actually
	// happened, the scenario idempotent retries exist for.
	ReplyDropRate float64
	// HeartbeatDropRate is the per-heartbeat probability that a
	// worker's lease renewal is silently dropped.
	HeartbeatDropRate float64
	// HeartbeatDelayRate is the per-heartbeat probability that the
	// renewal is delayed by heartbeatDelay before being sent.
	HeartbeatDelayRate float64
	// WorkerKillRate is the per-exec probability that the worker dies
	// permanently upon receiving that job: it stops heartbeating and
	// fails every current and future exec, like a killed process.
	WorkerKillRate float64
}

// heartbeatDelay is how long a delayed heartbeat waits.
const heartbeatDelay = 50 * time.Millisecond

// NodeChaos draws deterministic node-level failure decisions. All
// methods are nil-safe and pure: the same receiver, identifiers, and
// sequence numbers always produce the same verdicts.
type NodeChaos struct {
	cfg NodeConfig
}

// NewNodeChaos returns a decision source for cfg.
func NewNodeChaos(cfg NodeConfig) *NodeChaos {
	return &NodeChaos{cfg: cfg}
}

// RPCDropError is an injected cluster-plane failure: a dropped request
// or reply. It unwraps to ErrInjected.
type RPCDropError struct {
	// Kind is "rpc-drop" (request lost) or "reply-drop" (executed,
	// response lost).
	Kind string
	// From, To, and Method locate the call; Seq is its per-edge
	// sequence number.
	From, To, Method string
	Seq              uint64
}

func (e *RPCDropError) Error() string {
	return fmt.Sprintf("fault: injected %s on %s→%s %s (seq %d)", e.Kind, e.From, e.To, e.Method, e.Seq)
}

// Unwrap makes errors.Is(err, ErrInjected) true.
func (e *RPCDropError) Unwrap() error { return ErrInjected }

// DropRPC reports whether the seq-th call on the (from, to, method)
// edge is lost before reaching the callee.
func (n *NodeChaos) DropRPC(from, to, method string, seq uint64) bool {
	if n == nil || n.cfg.RPCDropRate <= 0 {
		return false
	}
	return newRNG(n.cfg.Seed, "rpc", from, to, method, u64str(seq)).float64() < n.cfg.RPCDropRate
}

// DropReply reports whether the seq-th call on the edge executes but
// loses its reply.
func (n *NodeChaos) DropReply(from, to, method string, seq uint64) bool {
	if n == nil || n.cfg.ReplyDropRate <= 0 {
		return false
	}
	return newRNG(n.cfg.Seed, "reply", from, to, method, u64str(seq)).float64() < n.cfg.ReplyDropRate
}

// DropHeartbeat reports whether the worker's seq-th heartbeat is
// silently lost.
func (n *NodeChaos) DropHeartbeat(worker string, seq uint64) bool {
	if n == nil || n.cfg.HeartbeatDropRate <= 0 {
		return false
	}
	return newRNG(n.cfg.Seed, "hb-drop", worker, u64str(seq)).float64() < n.cfg.HeartbeatDropRate
}

// DelayHeartbeat reports whether (and by how much) the worker's seq-th
// heartbeat is delayed before sending.
func (n *NodeChaos) DelayHeartbeat(worker string, seq uint64) (time.Duration, bool) {
	if n == nil || n.cfg.HeartbeatDelayRate <= 0 {
		return 0, false
	}
	if newRNG(n.cfg.Seed, "hb-delay", worker, u64str(seq)).float64() < n.cfg.HeartbeatDelayRate {
		return heartbeatDelay, true
	}
	return 0, false
}

// KillWorker reports whether the worker dies upon receiving its
// seq-th exec.
func (n *NodeChaos) KillWorker(worker string, execSeq uint64) bool {
	if n == nil || n.cfg.WorkerKillRate <= 0 {
		return false
	}
	return newRNG(n.cfg.Seed, "kill", worker, u64str(execSeq)).float64() < n.cfg.WorkerKillRate
}

// u64str is itoa for unsigned sequence numbers.
func u64str(v uint64) string { return fmt.Sprintf("%d", v) }
