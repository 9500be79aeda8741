package stream

import (
	"testing"

	"counterminer/pkg/client"
)

// BenchmarkStreamFanout measures one job completion fanned out to 8
// subscribers, each pulling its events — the hot path of a popular
// handle (marshal once, notify 8, pull 8).
func BenchmarkStreamFanout(b *testing.B) {
	r := NewRegistry(1, 1)
	h, err := r.Open(b.N+1, client.BatchStats{Submitted: b.N + 1})
	if err != nil {
		b.Fatal(err)
	}
	const fanout = 8
	subs := make([]*Subscriber, fanout)
	cursors := make([]uint64, fanout)
	for i := range subs {
		subs[i] = h.Subscribe()
	}
	res := client.BatchJobResult{Key: "bench", Cached: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Complete(i, res)
		for s, sub := range subs {
			select {
			case <-sub.C:
			default:
			}
			evs, _ := h.EventsSince(cursors[s])
			cursors[s] += uint64(len(evs))
		}
	}
}
