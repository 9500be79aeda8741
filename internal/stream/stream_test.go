package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"counterminer/pkg/client"
)

func decodeResult(t *testing.T, ev Event) client.BatchJobResult {
	t.Helper()
	if ev.Name != EventResult {
		t.Fatalf("event %d is %q, want %q", ev.Seq, ev.Name, EventResult)
	}
	var res client.BatchJobResult
	if err := json.Unmarshal(ev.Data, &res); err != nil {
		t.Fatalf("decode event %d: %v", ev.Seq, err)
	}
	return res
}

func decodeDone(t *testing.T, ev Event) client.StreamDone {
	t.Helper()
	if ev.Name != EventDone {
		t.Fatalf("event %d is %q, want %q", ev.Seq, ev.Name, EventDone)
	}
	var d client.StreamDone
	if err := json.Unmarshal(ev.Data, &d); err != nil {
		t.Fatalf("decode done event: %v", ev.Seq)
	}
	return d
}

// TestHandleExactlyOnceCompletionOrder pins the event log's contract:
// one event per completion in completion order, a terminal done event
// with the final stats, and duplicate completions dropped.
func TestHandleExactlyOnceCompletionOrder(t *testing.T) {
	r := NewRegistry(4, 4)
	h, err := r.Open(3, client.BatchStats{Submitted: 3, Executed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{2, 0, 1} {
		h.Complete(idx, client.BatchJobResult{Key: "k"})
	}
	// Duplicate: must be dropped and counted, not re-delivered.
	h.Complete(0, client.BatchJobResult{Key: "dup"})

	evs, terminal := h.EventsSince(0)
	if !terminal || len(evs) != 4 {
		t.Fatalf("got %d events terminal=%v, want 4/true", len(evs), terminal)
	}
	var order []int
	for _, ev := range evs[:3] {
		order = append(order, decodeResult(t, ev).Index)
	}
	if order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Fatalf("completion order %v, want [2 0 1]", order)
	}
	if d := decodeDone(t, evs[3]); d.Status != StatusDone || d.Stats.Submitted != 3 {
		t.Fatalf("done event %+v", d)
	}
	if decodeResult(t, evs[1]).Key != "k" {
		t.Fatal("duplicate completion overwrote the original result")
	}
	st := r.Stats()
	if st.LateCompletions != 1 || st.HandlesFinished != 1 || st.OpenHandles != 0 {
		t.Fatalf("registry counters %+v", st)
	}
	// Cursor semantics: every resume cursor, 0 through total+1, replays
	// exactly the log's suffix after it.
	all := evs
	for cursor := uint64(0); cursor <= 4; cursor++ {
		evs, terminal := h.EventsSince(cursor)
		if !terminal || uint64(len(evs)) != 4-cursor {
			t.Fatalf("resume from %d: %d events, terminal=%v", cursor, len(evs), terminal)
		}
		for i, ev := range evs {
			want := all[cursor+uint64(i)]
			if ev.Seq != cursor+uint64(i)+1 || ev.Name != want.Name || !bytes.Equal(ev.Data, want.Data) {
				t.Fatalf("resume from %d: event %d is seq %d %q, want seq %d %q",
					cursor, i, ev.Seq, ev.Name, want.Seq, want.Name)
			}
		}
	}

	// A caller's append to a returned slice never reaches the log, even
	// while the log still has room past the slice's end.
	h2, err := r.Open(2, client.BatchStats{Submitted: 2})
	if err != nil {
		t.Fatal(err)
	}
	h2.Complete(0, client.BatchJobResult{Key: "a"})
	early, _ := h2.EventsSince(0)
	h2.Complete(1, client.BatchJobResult{Key: "b"})
	_ = append(early, Event{Seq: 2, Name: EventResult, Data: []byte(`{"index":1,"key":"forged"}`)})
	evs, terminal = h2.EventsSince(1)
	if !terminal || len(evs) != 2 || evs[0].Seq != 2 {
		t.Fatalf("resume from 1 after append: %d events, terminal=%v", len(evs), terminal)
	}
	if got := decodeResult(t, evs[0]).Key; got != "b" {
		t.Fatalf("event 2 carries key %q after a caller's append, want b", got)
	}
}

// TestHandleCancel verifies cancellation: the hook fires exactly once,
// the handle stays open until every job lands, and the terminal event
// reports "canceled".
func TestHandleCancel(t *testing.T) {
	r := NewRegistry(1, 1)
	h, err := r.Open(2, client.BatchStats{Submitted: 2})
	if err != nil {
		t.Fatal(err)
	}
	hooks := 0
	h.SetOnCancel(func() { hooks++ })
	if !h.Cancel() {
		t.Fatal("first Cancel reported false")
	}
	if h.Cancel() {
		t.Fatal("second Cancel reported true")
	}
	if hooks != 1 {
		t.Fatalf("cancel hook ran %d times", hooks)
	}
	if h.Terminal() {
		t.Fatal("handle terminal before jobs landed")
	}
	h.Complete(0, client.BatchJobResult{Error: &client.ErrorResponse{Error: "canceled"}})
	h.Complete(1, client.BatchJobResult{Key: "k"})
	evs, terminal := h.EventsSince(2)
	if !terminal || len(evs) != 1 {
		t.Fatalf("terminal events %d, terminal=%v", len(evs), terminal)
	}
	if d := decodeDone(t, evs[0]); d.Status != StatusCanceled || d.Stats.Errors != 1 {
		t.Fatalf("done event %+v, want canceled with 1 error", d)
	}
	if snap := h.Snapshot(); snap.Status != StatusCanceled || snap.Completed != 2 {
		t.Fatalf("snapshot %+v", snap)
	}
	if st := r.Stats(); st.HandlesCanceled != 1 || st.HandlesFinished != 0 {
		t.Fatalf("registry counters %+v", st)
	}
}

// TestHandleForceFinish verifies the drain path: pending jobs complete
// with the given typed error and the terminal event flushes.
func TestHandleForceFinish(t *testing.T) {
	r := NewRegistry(1, 1)
	h, _ := r.Open(2, client.BatchStats{Submitted: 2})
	h.Complete(0, client.BatchJobResult{Key: "k"})
	h.ForceFinish("draining", "server draining")
	evs, terminal := h.EventsSince(0)
	if !terminal || len(evs) != 3 {
		t.Fatalf("%d events terminal=%v, want 3/true", len(evs), terminal)
	}
	res := decodeResult(t, evs[1])
	if res.Index != 1 || res.Error == nil || res.Error.Error != "draining" {
		t.Fatalf("forced job result %+v", res)
	}
	h.ForceFinish("draining", "again") // idempotent
	if evs, _ := h.EventsSince(0); len(evs) != 3 {
		t.Fatal("second ForceFinish grew the log")
	}
}

// TestRegistryLimitsAndRetention verifies the open-handle cap and the
// finished-handle retention LRU.
func TestRegistryLimitsAndRetention(t *testing.T) {
	r := NewRegistry(1, 1)
	h1, err := r.Open(1, client.BatchStats{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open(1, client.BatchStats{}); !errors.Is(err, ErrHandleLimit) {
		t.Fatalf("over-cap Open: %v, want ErrHandleLimit", err)
	}
	h1.Complete(0, client.BatchJobResult{})
	h2, err := r.Open(1, client.BatchStats{})
	if err != nil {
		t.Fatalf("Open after finish: %v", err)
	}
	// h1 is retained (retainCap 1) and still resolvable.
	if _, ok := r.Get(h1.ID()); !ok {
		t.Fatal("finished handle evicted before retention cap hit")
	}
	h2.Complete(0, client.BatchJobResult{})
	// h2 finishing pushes h1 past retainCap=1.
	if _, ok := r.Get(h1.ID()); ok {
		t.Fatal("retention LRU kept handle past cap")
	}
	if _, ok := r.Get(h2.ID()); !ok {
		t.Fatal("newest finished handle not retained")
	}
	if st := r.Stats(); st.HandlesExpired != 1 || st.RetainedHandles != 1 {
		t.Fatalf("retention counters %+v", st)
	}
}

// TestSubscriberNotify verifies the pull-model wakeups: an immediate
// wake on subscribe, a coalesced signal per burst of completions, and
// gauge accounting on unsubscribe.
func TestSubscriberNotify(t *testing.T) {
	r := NewRegistry(1, 1)
	h, _ := r.Open(2, client.BatchStats{})
	sub := h.Subscribe()
	select {
	case <-sub.C:
	default:
		t.Fatal("no initial wake on subscribe")
	}
	h.Complete(0, client.BatchJobResult{})
	select {
	case <-sub.C:
	default:
		t.Fatal("no wake after completion")
	}
	if evs, _ := h.EventsSince(0); len(evs) != 1 {
		t.Fatalf("pull saw %d events", len(evs))
	}
	if st := r.Stats(); st.Subscribers != 1 {
		t.Fatalf("subscriber gauge %d", st.Subscribers)
	}
	h.Unsubscribe(sub)
	h.Unsubscribe(sub) // idempotent
	if st := r.Stats(); st.Subscribers != 0 {
		t.Fatalf("subscriber gauge after unsubscribe %d", st.Subscribers)
	}
}

// TestRegistryDrainForceFinishes verifies Drain's contract: every open
// handle is terminal afterwards, so every open stream sees a terminal
// event before the listener closes.
func TestRegistryDrainForceFinishes(t *testing.T) {
	r := NewRegistry(4, 4)
	h, _ := r.Open(1, client.BatchStats{})
	r.Drain(0)
	if !h.Terminal() {
		t.Fatal("Drain left an open handle non-terminal")
	}
	snap := h.Snapshot()
	if snap.Jobs[0].Error == nil || snap.Jobs[0].Error.Error != "draining" {
		t.Fatalf("drained job state %+v", snap.Jobs[0])
	}
}

// TestHandleCountsFinishBeforeTerminalVisible: the registry counts a
// handle finished before its terminal event can be read, so a consumer
// that just received "done" always finds the handle counted in
// /metrics.stream.
func TestHandleCountsFinishBeforeTerminalVisible(t *testing.T) {
	r := NewRegistry(4, 4)
	for i := 1; i <= 2000; i++ {
		h, err := r.Open(1, client.BatchStats{})
		if err != nil {
			t.Fatal(err)
		}
		go h.Complete(0, client.BatchJobResult{})
		for {
			if _, terminal := h.EventsSince(0); terminal {
				break
			}
			runtime.Gosched()
		}
		if got := r.Stats().HandlesFinished; got != uint64(i) {
			t.Fatalf("after %d terminal events the registry counts %d finished handles", i, got)
		}
	}
}
