package collector

import (
	"testing"

	"counterminer/internal/sim"
)

// BenchmarkCollectServedShape measures one multiplexed kmeans run over
// the 11 events counterminerd's served requests name (ICACHE.*,
// L2_RQSTS.*, BR_INST_RETIRED.*), with the generator already built.
func BenchmarkCollectServedShape(b *testing.B) {
	cat := sim.NewCatalogue()
	events, err := cat.Select([]string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"})
	if err != nil {
		b.Fatal(err)
	}
	benchCollect(b, cat, events)
}

// BenchmarkCollectFullCatalogue is the control: all 229 events, so the
// run simulates every event, as a full-catalogue analysis does.
func BenchmarkCollectFullCatalogue(b *testing.B) {
	cat := sim.NewCatalogue()
	benchCollect(b, cat, cat.Events())
}

func benchCollect(b *testing.B, cat *sim.Catalogue, events []string) {
	c := New(cat)
	p, err := sim.ProfileByName("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	// Warm the generator memo, as a long-lived daemon's collector is.
	if _, err := c.Collect(p, 1, MLPX, events); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Collect(p, 1, MLPX, events); err != nil {
			b.Fatal(err)
		}
	}
}
