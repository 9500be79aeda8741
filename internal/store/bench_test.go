package store

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// benchRecord is a put/get-sized record: 2 events + IPC, 64 intervals.
func benchRecord(benchmark string, runID int) Record {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(runID + i)
	}
	return Record{
		Meta:   RunMeta{Benchmark: benchmark, RunID: runID, Mode: "MLPX"},
		IPC:    vals,
		Series: map[string][]float64{"A.EVENT": vals, "B.EVENT": vals},
	}
}

// BenchmarkStorePutGetMixed measures a concurrent mixed workload — each
// worker hammers its own benchmark (its own shard) with a Put followed
// by three Gets. With per-shard locks, throughput scales with workers
// instead of serialising on one store lock.
func BenchmarkStorePutGetMixed(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db, err := Open("")
			if err != nil {
				b.Fatal(err)
			}
			recs := make([]Record, workers)
			for w := range recs {
				recs[w] = benchRecord(fmt.Sprintf("bench-%d", w), 1)
				if err := db.Put(recs[w]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/workers + 1
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					bench := fmt.Sprintf("bench-%d", w)
					for i := 0; i < per; i++ {
						if i%4 == 0 {
							db.Put(recs[w])
						} else {
							db.Get(bench, 1, "MLPX")
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// benchFlushStore builds a flushed on-disk store of `shards` benchmarks.
func benchFlushStore(b *testing.B, shards int) *DB {
	b.Helper()
	db, err := Open(filepath.Join(b.TempDir(), "runs.db"))
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		if err := db.Put(benchRecord(fmt.Sprintf("bench-%d", s), 1)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkStoreFlushDirtyShard: one Put + Flush per op into a
// benchmark already holding `runs` runs, in a catalog of 64 benchmarks.
// The Put replaces one of those runs, so the shard keeps its size; the
// flush writes that run alone, so its cost does not grow with the runs
// already stored (nor with the catalog).
func BenchmarkStoreFlushDirtyShard(b *testing.B) {
	for _, runs := range []int{10, 1000} {
		b.Run(fmt.Sprintf("runs=%d", runs), func(b *testing.B) {
			db := benchFlushStore(b, 64)
			for r := 2; r <= runs; r++ {
				if err := db.Put(benchRecord("bench-0", r)); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Put(benchRecord("bench-0", 1+i%runs))
				if err := db.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreFlushFullCatalog: one run Put into each of the 64
// benchmarks, then one Flush — every shard dirty, for comparison.
func BenchmarkStoreFlushFullCatalog(b *testing.B) {
	db := benchFlushStore(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 64; s++ {
			db.Put(benchRecord(fmt.Sprintf("bench-%d", s), 1))
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
