package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestTeamRunsEveryIndexOnce issues fan-outs of several sizes, back to
// back, on one team: every index runs exactly once per fan-out and its
// result lands in its own slot.
func TestTeamRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		team := NewTeam(workers)
		if team.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", team.Workers(), workers)
		}
		for round := 0; round < 200; round++ {
			n := []int{0, 1, 2, 7, 57, 1000}[round%6]
			counts := make([]int32, n)
			out := make([]int, n)
			team.Run(n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
				out[i] = i*i + round
			})
			for i := range counts {
				if counts[i] != 1 {
					t.Fatalf("workers=%d round %d: index %d of %d ran %d times", workers, round, i, n, counts[i])
				}
				if out[i] != i*i+round {
					t.Fatalf("workers=%d round %d: out[%d] = %d, want %d", workers, round, i, out[i], i*i+round)
				}
			}
		}
		team.Close()
	}
}

// waitParked waits until every helper of team has parked.
func waitParked(t *testing.T, team *Team) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for team.parked.Load() != int32(team.workers-1) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers parked", team.parked.Load(), team.workers-1)
		}
		time.Sleep(spinBudget)
	}
}

// TestTeamWakesParkedHelpers idles the team past the spin budget before
// each fan-out, until every helper has parked. Each item then waits for
// every worker to hold an item at once, which only completes if the
// parked helpers woke and joined.
func TestTeamWakesParkedHelpers(t *testing.T) {
	const workers = 4
	team := NewTeam(workers)
	defer team.Close()
	for round := 0; round < 5; round++ {
		waitParked(t, team)
		var arrived atomic.Int32
		var timedOut atomic.Bool
		team.Run(workers, func(int) {
			arrived.Add(1)
			deadline := time.Now().Add(5 * time.Second)
			for arrived.Load() < workers {
				if time.Now().After(deadline) {
					timedOut.Store(true)
					return
				}
				runtime.Gosched()
			}
		})
		if timedOut.Load() {
			t.Fatalf("round %d: only %d of %d workers joined the fan-out", round, arrived.Load(), workers)
		}
	}
}

// TestTeamCloseLeavesNoGoroutine closes teams whose helpers are
// spinning, parked, or never saw a fan-out: none may outlive Close.
func TestTeamCloseLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, parked := range []bool{false, true} {
		for _, fanOuts := range []int{0, 1, 50} {
			team := NewTeam(8)
			for k := 0; k < fanOuts; k++ {
				team.Run(64, func(int) {})
			}
			if parked {
				waitParked(t, team)
			}
			team.Close()
			team.Close()
			// Run after Close still runs every item, inline.
			ran := 0
			team.Run(3, func(int) { ran++ })
			if ran != 3 {
				t.Fatalf("Run after Close ran %d of 3 items", ran)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines outlived Close: baseline %d, now %d", baseline, n)
	}
}
