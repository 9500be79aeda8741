package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestNodeChaosDeterministic pins the replayability contract: two
// NodeChaos instances built from the same config draw identical
// decision sequences across every injection surface, so a failed
// chaos run can be replayed bit-for-bit from its seed.
func TestNodeChaosDeterministic(t *testing.T) {
	cfg := NodeConfig{
		Seed:               42,
		RPCDropRate:        0.3,
		ReplyDropRate:      0.3,
		HeartbeatDropRate:  0.3,
		HeartbeatDelayRate: 0.3,
		WorkerKillRate:     0.3,
	}
	a, b := NewNodeChaos(cfg), NewNodeChaos(cfg)
	for seq := uint64(0); seq < 200; seq++ {
		if a.DropRPC("c", "w1", "exec", seq) != b.DropRPC("c", "w1", "exec", seq) {
			t.Fatalf("DropRPC diverged at seq %d", seq)
		}
		if a.DropReply("c", "w1", "exec", seq) != b.DropReply("c", "w1", "exec", seq) {
			t.Fatalf("DropReply diverged at seq %d", seq)
		}
		if a.DropHeartbeat("w1", seq) != b.DropHeartbeat("w1", seq) {
			t.Fatalf("DropHeartbeat diverged at seq %d", seq)
		}
		da, oka := a.DelayHeartbeat("w1", seq)
		db, okb := b.DelayHeartbeat("w1", seq)
		if da != db || oka != okb {
			t.Fatalf("DelayHeartbeat diverged at seq %d", seq)
		}
		if a.KillWorker("w1", seq) != b.KillWorker("w1", seq) {
			t.Fatalf("KillWorker diverged at seq %d", seq)
		}
	}
}

// TestNodeChaosDecorrelated: different seeds, different identifiers,
// and different surfaces must not share a decision stream — otherwise
// one seed exercises far fewer distinct failure schedules than the
// test matrix claims.
func TestNodeChaosDecorrelated(t *testing.T) {
	base := NodeConfig{RPCDropRate: 0.5, HeartbeatDropRate: 0.5}
	n1 := NewNodeChaos(base)
	cfg2 := base
	cfg2.Seed = 99
	n2 := NewNodeChaos(cfg2)

	sameSeed, sameEdge, sameSurface := 0, 0, 0
	const trials = 400
	for seq := uint64(0); seq < trials; seq++ {
		if n1.DropRPC("c", "w1", "exec", seq) == n2.DropRPC("c", "w1", "exec", seq) {
			sameSeed++
		}
		if n1.DropRPC("c", "w1", "exec", seq) == n1.DropRPC("c", "w2", "exec", seq) {
			sameEdge++
		}
		if n1.DropRPC("c", "w1", "exec", seq) == n1.DropHeartbeat("w1", seq) {
			sameSurface++
		}
	}
	// Independent fair coins agree ~50% of the time; identical streams
	// agree 100%. Anything above 70% over 400 trials means correlation.
	for name, agree := range map[string]int{"seeds": sameSeed, "edges": sameEdge, "surfaces": sameSurface} {
		if agree > trials*7/10 {
			t.Errorf("decision streams across %s agree %d/%d times — correlated", name, agree, trials)
		}
	}
}

// TestNodeChaosZeroRatesInjectNothing: the zero config and a nil
// receiver are both inert, so production wiring threads one pointer
// unconditionally.
func TestNodeChaosZeroRatesInjectNothing(t *testing.T) {
	for name, n := range map[string]*NodeChaos{
		"zero config": NewNodeChaos(NodeConfig{Seed: 7}),
		"nil":         nil,
	} {
		for seq := uint64(0); seq < 100; seq++ {
			if n.DropRPC("c", "w", "exec", seq) || n.DropReply("c", "w", "exec", seq) ||
				n.DropHeartbeat("w", seq) || n.KillWorker("w", seq) {
				t.Fatalf("%s chaos injected a failure at seq %d", name, seq)
			}
			if d, ok := n.DelayHeartbeat("w", seq); ok || d != 0 {
				t.Fatalf("%s chaos delayed a heartbeat at seq %d", name, seq)
			}
		}
	}
}

// TestNodeChaosRateOneAlwaysFires: at rate 1 every exec kills the
// worker and every heartbeat waits the fixed 50 ms delay.
func TestNodeChaosRateOneAlwaysFires(t *testing.T) {
	n := NewNodeChaos(NodeConfig{WorkerKillRate: 1, HeartbeatDelayRate: 1})
	for seq := uint64(0); seq < 50; seq++ {
		if !n.KillWorker("w", seq) {
			t.Fatalf("kill-rate-1 plan spared exec %d", seq)
		}
		d, ok := n.DelayHeartbeat("w", seq)
		if !ok || d != 50*time.Millisecond {
			t.Fatalf("delay-rate-1 heartbeat %d = (%v, %v), want 50ms", seq, d, ok)
		}
	}
}

// TestRPCDropErrorUnwrapsToInjected keeps injected cluster faults
// distinguishable from real failures via errors.Is.
func TestRPCDropErrorUnwrapsToInjected(t *testing.T) {
	err := error(&RPCDropError{Kind: "rpc-drop", From: "c", To: "w1", Method: "exec", Seq: 3})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("RPCDropError does not unwrap to ErrInjected: %v", err)
	}
	for _, want := range []string{"rpc-drop", "w1", "exec"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error text %q omits %q", err.Error(), want)
		}
	}
}
