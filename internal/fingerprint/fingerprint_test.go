package fingerprint

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"counterminer/internal/collector"
	"counterminer/internal/sim"
	"counterminer/internal/timeseries"
)

// collectEmbed collects one MLPX run of the named benchmark over the
// full catalogue and embeds it.
func collectEmbed(t testing.TB, coll *collector.Collector, bench string, runID int) ([]float64, sim.Profile) {
	t.Helper()
	p, err := sim.ProfileByName(bench)
	if err != nil {
		t.Fatalf("profile %s: %v", bench, err)
	}
	run, err := coll.Collect(p, runID, collector.MLPX, coll.Catalogue().Events())
	if err != nil {
		t.Fatalf("collect %s: %v", bench, err)
	}
	return Embed(run.Series, run.IPC), p
}

func newColl() *collector.Collector {
	return collector.New(sim.NewCatalogue())
}

func TestFingerprintEmbedDeterministic(t *testing.T) {
	coll := newColl()
	a, _ := collectEmbed(t, coll, "wordcount", 1)
	b, _ := collectEmbed(t, coll, "wordcount", 1)
	if len(a) != Dim || len(b) != Dim {
		t.Fatalf("embedding width %d/%d, want %d", len(a), len(b), Dim)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("embedding not bit-identical at %d: %x vs %x", i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
	norm := 0.0
	for _, v := range a {
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("embedding norm %v, want 1", norm)
	}
}

func TestFingerprintEmbedRobustToGarbage(t *testing.T) {
	coll := newColl()
	p, _ := sim.ProfileByName("pagerank")
	run, err := coll.Collect(p, 1, collector.MLPX, coll.Catalogue().Events())
	if err != nil {
		t.Fatal(err)
	}
	clean := Embed(run.Series, run.IPC)

	// Poison ~2% of samples of every series with NaN/Inf; the robust
	// features must barely move.
	dirty := run.Series.Clone()
	for _, ev := range dirty.Events() {
		s := dirty.MustGet(ev)
		for i := 0; i < s.Len(); i += 50 {
			s.Values[i] = math.NaN()
		}
		if s.Len() > 25 {
			s.Values[25] = math.Inf(1)
		}
	}
	poisoned := Embed(dirty, run.IPC)
	if d := Distance(clean, poisoned); d > 0.08 {
		t.Fatalf("garbage moved embedding by %v, want <= 0.08", d)
	}
}

func TestFingerprintEmbedEmptySet(t *testing.T) {
	vec := Embed(timeseries.NewSet(), nil)
	if len(vec) != Dim {
		t.Fatalf("width %d", len(vec))
	}
	for _, v := range vec {
		if v != 0 {
			t.Fatalf("empty set should embed to zero vector, got %v", vec)
		}
	}
	if Embed(nil, nil)[0] != 0 {
		t.Fatal("nil set should embed to zero vector")
	}
}

// saturate clips every series above frac of its max, mimicking the
// fault injector's corruptSaturate (a saturating counter register) —
// the synthetic "drifted workload" of the anomaly acceptance test.
func saturate(set *timeseries.Set, frac float64) *timeseries.Set {
	out := set.Clone()
	for _, ev := range out.Events() {
		s := out.MustGet(ev)
		max := math.Inf(-1)
		for _, v := range s.Values {
			if v > max {
				max = v
			}
		}
		cap := max * frac
		for i, v := range s.Values {
			if v > cap {
				s.Values[i] = cap
			}
		}
	}
	return out
}

// TestIndexSeparationCalibration is the calibration experiment behind
// DefaultTau/DefaultFloor: across the sixteen simulated benchmarks,
// same-benchmark runs must embed within DefaultTau of each other
// while distinct benchmarks stay beyond it, the resulting clustering
// must be pure (every cluster single-label), held-out runs must
// classify to their own benchmark with confidence >= 0.9, and a
// saturated (drifted) profile must be flagged anomalous.
func TestIndexSeparationCalibration(t *testing.T) {
	coll := newColl()
	benches := sim.AllBenchmarkNames()
	vecs := map[string][][]float64{}
	suites := map[string]string{}
	for _, b := range benches {
		for run := 1; run <= 3; run++ {
			v, p := collectEmbed(t, coll, b, run)
			vecs[b] = append(vecs[b], v)
			suites[b] = p.Suite.String()
		}
	}

	maxIntra, minInter := 0.0, math.Inf(1)
	var maxIntraAt, minInterAt string
	for _, b := range benches {
		for i := 0; i < len(vecs[b]); i++ {
			for j := i + 1; j < len(vecs[b]); j++ {
				if d := Distance(vecs[b][i], vecs[b][j]); d > maxIntra {
					maxIntra, maxIntraAt = d, b
				}
			}
		}
	}
	for i, a := range benches {
		for _, b := range benches[i+1:] {
			for _, va := range vecs[a] {
				for _, vb := range vecs[b] {
					if d := Distance(va, vb); d < minInter {
						minInter, minInterAt = d, a+"/"+b
					}
				}
			}
		}
	}
	t.Logf("max intra-benchmark distance %.4f (%s), min inter-benchmark distance %.4f (%s)",
		maxIntra, maxIntraAt, minInter, minInterAt)
	if maxIntra >= DefaultTau {
		t.Errorf("max intra distance %.4f >= tau %.2f: same-benchmark runs would split", maxIntra, DefaultTau)
	}
	if minInter <= DefaultTau {
		t.Errorf("min inter distance %.4f <= tau %.2f: distinct benchmarks would merge", minInter, DefaultTau)
	}

	ix := NewIndex()
	var entries []Entry
	for _, b := range benches {
		for run, v := range vecs[b] {
			entries = append(entries, Entry{
				Key:   fmt.Sprintf("%s/%d/MLPX", b, run+1),
				Label: b,
				Suite: suites[b],
				Vec:   v,
			})
		}
	}
	ix.Fill(entries)
	t.Logf("index: %d entries, %d clusters, version %s", ix.Len(), ix.NumClusters(), ix.Version())
	if ix.NumClusters() != len(benches) {
		t.Errorf("got %d clusters for %d benchmarks", ix.NumClusters(), len(benches))
	}
	for _, c := range ix.Clusters() {
		if c.Members != 3 {
			t.Errorf("cluster %s has %d members, want 3 (impure or split)", c.Label, c.Members)
		}
	}

	// Held-out runs (not in the index) must classify to their own
	// benchmark with high confidence and correct suite.
	for _, b := range benches {
		v, p := collectEmbed(t, coll, b, 7)
		res, err := ix.Classify(v, 3)
		if err != nil {
			t.Fatalf("classify %s: %v", b, err)
		}
		if res.Matches[0].Label != b {
			t.Errorf("%s classified as %s (d=%.4f)", b, res.Matches[0].Label, res.Matches[0].Distance)
			continue
		}
		if res.Confidence < 0.9 {
			t.Errorf("%s confidence %.4f < 0.9", b, res.Confidence)
		}
		if res.Anomaly {
			t.Errorf("%s flagged anomalous (score %.3f)", b, res.AnomalyScore)
		}
		if len(res.Suites) == 0 || res.Suites[0].Suite != p.Suite.String() {
			t.Errorf("%s suite confidence ranks %v, want %s first", b, res.Suites, p.Suite)
		}
	}

	// A saturated (drifted) profile of a known benchmark must be
	// flagged anomalous.
	p, _ := sim.ProfileByName("kmeans")
	run, err := coll.Collect(p, 9, collector.MLPX, coll.Catalogue().Events())
	if err != nil {
		t.Fatal(err)
	}
	drifted := Embed(saturate(run.Series, 0.25), run.IPC)
	res, err := ix.Classify(drifted, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("drifted kmeans: nearest %s d=%.4f anomalyScore=%.3f", res.Matches[0].Label, res.Matches[0].Distance, res.AnomalyScore)
	if !res.Anomaly {
		t.Errorf("saturated profile not flagged anomalous (score %.3f)", res.AnomalyScore)
	}
}

func TestIndexInsertionOrderInvariant(t *testing.T) {
	coll := newColl()
	benches := []string{"wordcount", "sort", "DataCaching", "WebSearch", "join"}
	var entries []Entry
	for _, b := range benches {
		for run := 1; run <= 2; run++ {
			v, p := collectEmbed(t, coll, b, run)
			entries = append(entries, Entry{
				Key:   fmt.Sprintf("%s/%d/MLPX", b, run),
				Label: b,
				Suite: p.Suite.String(),
				Vec:   v,
			})
		}
	}
	forward := NewIndex()
	for _, e := range entries {
		forward.Upsert(e)
	}
	backward := NewIndex()
	for i := len(entries) - 1; i >= 0; i-- {
		backward.Upsert(entries[i])
	}
	bulk := NewIndex()
	bulk.Fill(entries)

	if forward.Version() != backward.Version() || forward.Version() != bulk.Version() {
		t.Fatalf("index version depends on insertion order: %s / %s / %s",
			forward.Version(), backward.Version(), bulk.Version())
	}
	fc, bc := forward.Clusters(), backward.Clusters()
	if len(fc) != len(bc) {
		t.Fatalf("cluster count differs: %d vs %d", len(fc), len(bc))
	}
	for i := range fc {
		if fc[i].Label != bc[i].Label || fc[i].Members != bc[i].Members || fc[i].Radius != bc[i].Radius {
			t.Fatalf("cluster %d differs: %+v vs %+v", i, fc[i], bc[i])
		}
	}
}

func TestIndexVersionTracksContent(t *testing.T) {
	ix := NewIndex()
	if ix.Version() != "empty" {
		t.Fatalf("empty index version %q", ix.Version())
	}
	vec := make([]float64, Dim)
	vec[0] = 1
	ix.Upsert(Entry{Key: "a/1/MLPX", Label: "a", Suite: "HiBench", Vec: vec})
	v1 := ix.Version()
	if v1 == "empty" || v1 == "" {
		t.Fatalf("version after upsert %q", v1)
	}
	// Re-upserting identical content must not change the version.
	ix.Upsert(Entry{Key: "a/1/MLPX", Label: "a", Suite: "HiBench", Vec: vec})
	if ix.Version() != v1 {
		t.Fatalf("idempotent upsert changed version %s -> %s", v1, ix.Version())
	}
	vec2 := make([]float64, Dim)
	vec2[1] = 1
	ix.Upsert(Entry{Key: "b/1/MLPX", Label: "b", Suite: "HiBench", Vec: vec2})
	if ix.Version() == v1 {
		t.Fatal("version unchanged after new entry")
	}
}

// TestIndexVersionGolden pins the version of a fixed entry set, so a
// change to how the entry bytes reach the hash cannot change the
// content address that classify verdicts are cached under.
func TestIndexVersionGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var entries []Entry
	for i := 0; i < 48; i++ {
		vec := make([]float64, Dim)
		for j := range vec {
			vec[j] = 0.01 * rng.NormFloat64()
		}
		vec[i%6] += 1
		label := fmt.Sprintf("bench%d", i%6)
		entries = append(entries, Entry{Key: fmt.Sprintf("%s/%d/MLPX", label, i), Label: label, Suite: fmt.Sprintf("suite%d", i%2), Vec: vec})
	}
	ix := NewIndex()
	ix.Fill(entries)
	const want = "e37fa90413e2e9479e1fc0e8106a36fb"
	if v, n := ix.Version(), ix.NumClusters(); v != want || n != 6 {
		t.Fatalf("version %s with %d clusters, want %s with 6", v, n, want)
	}
}

// TestIndexReadsAfterWriteAreFresh: a write only marks the index
// stale, so whichever clustering read comes first after it must
// recluster and see the new entry.
func TestIndexReadsAfterWriteAreFresh(t *testing.T) {
	unit := func(i int) []float64 {
		v := make([]float64, Dim)
		v[i] = 1
		return v
	}
	a := Entry{Key: "a/1/MLPX", Label: "a", Suite: "s", Vec: unit(0)}
	b := Entry{Key: "b/1/MLPX", Label: "b", Suite: "s", Vec: unit(1)}
	want := NewIndex()
	want.Fill([]Entry{a, b})
	wantVersion := want.Version()
	if wantVersion == "empty" {
		t.Fatal("a two-entry index reports the empty version")
	}

	readers := []struct {
		name string
		read func(*Index) error
	}{
		{"Version", func(ix *Index) error {
			if v := ix.Version(); v != wantVersion {
				return fmt.Errorf("version %s, want %s", v, wantVersion)
			}
			return nil
		}},
		{"Clusters", func(ix *Index) error {
			cs := ix.Clusters()
			if len(cs) != 2 || cs[1].Label != "b" {
				return fmt.Errorf("clusters %+v, want a and b", cs)
			}
			return nil
		}},
		{"NumClusters", func(ix *Index) error {
			if n := ix.NumClusters(); n != 2 {
				return fmt.Errorf("%d clusters, want 2", n)
			}
			return nil
		}},
		{"Classify", func(ix *Index) error {
			res, err := ix.Classify(b.Vec, 3)
			if err != nil {
				return err
			}
			if res.Matches[0].Label != "b" || res.Matches[0].Distance != 0 || res.Entries != 2 || res.IndexVersion != wantVersion {
				return fmt.Errorf("result %+v, want b at distance 0 over 2 entries, version %s", res, wantVersion)
			}
			return nil
		}},
	}
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			ix := NewIndex()
			ix.Fill([]Entry{a})
			ix.Version() // cluster the one-entry index; only the upsert makes it stale
			ix.Upsert(b)
			if err := r.read(ix); err != nil {
				t.Fatal(err)
			}
		})
	}

	ix := NewIndex()
	ix.Fill([]Entry{a, b})
	v := ix.Version()
	ix.Fill(nil)
	if ix.stale || ix.Version() != v {
		t.Fatalf("Fill(nil) changed the index: stale %v, version %s -> %s", ix.stale, v, ix.Version())
	}

	// A burst of writes followed by every kind of read reclusters once.
	before := ix.Reclusters()
	ix.Upsert(a)
	ix.Fill([]Entry{b})
	ix.Upsert(b)
	ix.Version()
	ix.Clusters()
	ix.NumClusters()
	if _, err := ix.Classify(a.Vec, 1); err != nil {
		t.Fatal(err)
	}
	ix.Len()
	if n := ix.Reclusters() - before; n != 1 {
		t.Fatalf("three writes then four reads reclustered %d times, want 1", n)
	}
}

// TestIndexConcurrentWritesAndReads overlaps writers (Upsert, Fill)
// on shared keys with every clustering read; at the end the lazily
// rebuilt version must equal a fresh index's over the final entries.
func TestIndexConcurrentWritesAndReads(t *testing.T) {
	const keys, rounds = 12, 200
	entry := func(k, gen int) Entry {
		vec := make([]float64, Dim)
		vec[k%4] = 1
		vec[4+gen%8] = 0.05
		return Entry{Key: fmt.Sprintf("b%d/%d/MLPX", k%4, k), Label: fmt.Sprintf("b%d", k%4), Suite: "s", Vec: vec}
	}
	ix := NewIndex()
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				k := (w*7 + i) % keys
				if i%10 == 0 {
					ix.Fill([]Entry{entry(k, w+i), entry((k+1)%keys, w), entry((k+2)%keys, i)})
				} else {
					ix.Upsert(entry(k, w+i))
				}
			}
		}(w)
	}
	probe := entry(0, 0).Vec
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				switch r {
				case 0:
					if ix.Version() == "" {
						t.Error("empty version string")
					}
				case 1:
					res, err := ix.Classify(probe, 100)
					if err == ErrEmpty {
						continue
					}
					if err != nil {
						t.Error(err)
					} else if len(res.Matches) != res.Clusters || res.Entries > keys {
						t.Errorf("inconsistent result: %d matches, %d clusters, %d entries", len(res.Matches), res.Clusters, res.Entries)
					}
				case 2:
					if n := ix.NumClusters(); n > keys {
						t.Errorf("%d clusters over at most %d entries", n, keys)
					}
				case 3:
					members := 0
					for _, c := range ix.Clusters() {
						members += c.Members
					}
					if members > keys {
						t.Errorf("clusters hold %d members, at most %d entries exist", members, keys)
					}
				}
			}
		}(r)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	final := make([]Entry, 0, keys)
	for _, e := range ix.entries {
		final = append(final, e)
	}
	fresh := NewIndex()
	fresh.Fill(final)
	if fresh.Version() == "empty" {
		t.Fatalf("a fresh index over %d entries reports the empty version", len(final))
	}
	if ix.Version() != fresh.Version() {
		t.Fatalf("version %s after concurrent writes, fresh index over the same entries %s", ix.Version(), fresh.Version())
	}
}

func TestClassifyEmptyIndex(t *testing.T) {
	ix := NewIndex()
	if _, err := ix.Classify(make([]float64, Dim), 3); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestClassifyMatchBound(t *testing.T) {
	ix := NewIndex()
	var entries []Entry
	for i := 0; i < 5; i++ {
		vec := make([]float64, Dim)
		vec[i] = 1
		entries = append(entries, Entry{Key: fmt.Sprintf("b%d/1/MLPX", i), Label: fmt.Sprintf("b%d", i), Suite: "s", Vec: vec})
	}
	ix.Fill(entries)
	probe := make([]float64, Dim)
	probe[0] = 1
	res, err := ix.Classify(probe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("got %d matches, want 2", len(res.Matches))
	}
	if res.Matches[0].Label != "b0" || res.Matches[0].Distance != 0 {
		t.Fatalf("nearest = %+v", res.Matches[0])
	}
	res, err = ix.Classify(probe, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 5 {
		t.Fatalf("k beyond cluster count: got %d matches, want 5", len(res.Matches))
	}
}

func BenchmarkEmbed(b *testing.B) {
	coll := newColl()
	p, _ := sim.ProfileByName("wordcount")
	run, err := coll.Collect(p, 1, collector.MLPX, coll.Catalogue().Events())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Embed(run.Series, run.IPC)
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	coll := newColl()
	ix := NewIndex()
	var entries []Entry
	var probe []float64
	for _, bench := range sim.AllBenchmarkNames() {
		v, p := collectEmbed(b, coll, bench, 1)
		entries = append(entries, Entry{Key: bench + "/1/MLPX", Label: bench, Suite: p.Suite.String(), Vec: v})
		probe = v
	}
	ix.Fill(entries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Classify(probe, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexUpsert times one Upsert into an index of n entries in
// 16 tight clusters, each replacing an existing entry so the size
// holds. A write only marks the index stale, so its cost should not
// grow with n. The ",read" variants follow each Upsert with a Version
// read: one recluster per op, the cost the first reader after a write
// pays, which does grow with n.
func BenchmarkIndexUpsert(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		rng := rand.New(rand.NewSource(1))
		entries := make([]Entry, n)
		for i := range entries {
			vec := make([]float64, Dim)
			for j := range vec {
				vec[j] = 0.005 * rng.NormFloat64()
			}
			vec[i%16] += 1
			label := fmt.Sprintf("b%02d", i%16)
			entries[i] = Entry{Key: fmt.Sprintf("%s/%d/MLPX", label, i), Label: label, Suite: "s", Vec: vec}
		}
		for _, read := range []bool{false, true} {
			name := fmt.Sprintf("entries=%d", n)
			if read {
				name += ",read"
			}
			b.Run(name, func(b *testing.B) {
				ix := NewIndex()
				ix.Fill(entries)
				ix.Version()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ix.Upsert(entries[i%n])
					if read {
						ix.Version()
					}
				}
			})
		}
	}
}
