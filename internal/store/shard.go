package store

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// bytesPerSample is the resident-memory cost charged per stored
// float64 when enforcing the eviction budget.
const bytesPerSample = 8

// shard is one benchmark's slice of the store. The first level (metas)
// is always resident once the store is open; the second level (series)
// loads lazily and may be evicted while the shard is clean.
type shard struct {
	bench string

	mu     sync.RWMutex
	loaded bool // series resident
	// pending holds the keys whose run file is stale: the next flush
	// writes those runs. A shard with pending keys is loaded and never
	// evicted.
	pending map[string]struct{}
	// metas indexes the shard's runs by key.
	metas map[string]RunMeta
	// series maps a series-table name to its per-event series (IPC
	// stored under the reserved name "__ipc__"); nil while evicted.
	series map[string]map[string][]float64
	// samples counts stored values across the shard's series. It is
	// maintained through mutations and read from the run files' heads at
	// Open, so it stays meaningful while the shard is evicted.
	samples int64

	// elem is the shard's LRU position; guarded by DB.mu, not shard.mu.
	elem *list.Element
}

func newShard(bench string, loaded bool) *shard {
	s := &shard{bench: bench, loaded: loaded, metas: make(map[string]RunMeta)}
	if loaded {
		s.series = make(map[string]map[string][]float64)
	}
	return s
}

// dirty reports that the next flush has work: stale run files.
func (s *shard) dirty() bool { return len(s.pending) > 0 }

// evictable reports whether the shard's series can be dropped: they are
// resident and every run reloads from disk as it is in memory.
func (s *shard) evictable() bool { return s.loaded && len(s.pending) == 0 }

// markPending records that the run file of key k is stale.
func (s *shard) markPending(k string) {
	if s.pending == nil {
		s.pending = make(map[string]struct{})
	}
	s.pending[k] = struct{}{}
}

// openDir reads a store directory: the head of every run file is
// decoded eagerly; series stay on disk until first touch. A run file
// that is unreadable, damaged or misnamed is skipped and counted; other
// runs are unaffected. A v3 .shard file is an error.
func (db *DB) openDir() error {
	entries, err := os.ReadDir(db.path)
	if err != nil {
		return fmt.Errorf("store: open: %w", err)
	}
	for _, e := range entries {
		switch name := e.Name(); {
		case strings.HasPrefix(name, "."):
			// Temp files of interrupted writes.
		case e.IsDir():
			db.openBenchDir(name)
		case strings.HasSuffix(name, ".shard"):
			return fmt.Errorf("store: %s is a v3 .shard file, which this build no longer reads; %s",
				filepath.Join(db.path, name), migrateHint)
		}
	}
	return nil
}

// openBenchDir reads the heads of one benchmark directory's run files.
// Open runs single-goroutine, so no locks are held.
func (db *DB) openBenchDir(dirName string) {
	dir := filepath.Join(db.path, dirName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		db.skipped.Add(1)
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), runSuffix) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		h, err := readRunHead(path)
		m := h.Meta
		if err != nil || benchDirName(m.Benchmark) != dirName || runFileName(m.RunID, m.Mode) != e.Name() {
			db.skipped.Add(1)
			db.noteDamage(path, err)
			continue
		}
		s := db.shards[m.Benchmark]
		if s == nil {
			s = newShard(m.Benchmark, false)
			db.shards[m.Benchmark] = s
		}
		s.metas[key(m.Benchmark, m.RunID, m.Mode)] = m
		s.samples += h.Samples
	}
}

// load makes the shard's series resident. The caller holds s.mu for
// writing. Each run is read from its run file; a run whose file cannot
// be read is dropped from the shard and counted in db.skipped — the
// rest of the shard (and every other shard) is unaffected.
func (s *shard) load(db *DB) {
	if s.loaded {
		return
	}
	dir := filepath.Join(db.path, benchDirName(s.bench))
	s.series = make(map[string]map[string][]float64, len(s.metas))
	var n int64
	for k, m := range s.metas {
		path := filepath.Join(dir, runFileName(m.RunID, m.Mode))
		meta, table, err := readRun(path)
		db.noteDamage(path, err)
		if err == nil && key(meta.Benchmark, meta.RunID, meta.Mode) != k {
			err = errors.New("store: run file holds another run")
		}
		if err != nil {
			delete(s.metas, k)
			db.skipped.Add(1)
			continue
		}
		s.metas[k] = meta
		s.series[meta.SeriesTable] = table
		n += countSamples(table)
	}
	s.samples = n
	s.loaded = true
	db.loads.Add(1)
	db.resident.Add(n * bytesPerSample)
}

// countSamples counts the values in one series table.
func countSamples(table map[string][]float64) int64 {
	var n int64
	for _, vals := range table {
		n += int64(len(vals))
	}
	return n
}

// dropSeries removes one series table, keeping the sample and resident
// accounting straight. The caller holds s.mu for writing and the shard
// is loaded.
func (s *shard) dropSeries(db *DB, table string) {
	old, ok := s.series[table]
	if !ok {
		return
	}
	n := countSamples(old)
	delete(s.series, table)
	s.samples -= n
	db.resident.Add(-n * bytesPerSample)
}

// evict releases the shard's series. The caller holds s.mu for writing;
// the shard must be evictable. samples keeps its last value so
// statistics stay correct while the shard is cold.
func (s *shard) evict(db *DB) {
	s.series = nil
	s.loaded = false
	db.resident.Add(-s.samples * bytesPerSample)
	db.evictions.Add(1)
}

// sortedPending returns the pending keys in order, so a flush writes a
// shard's files in a deterministic order.
func (s *shard) sortedPending() []string {
	keys := make([]string, 0, len(s.pending))
	for k := range s.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
