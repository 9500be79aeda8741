// Package store is CounterMiner's performance-data store. The paper
// keeps collected counter time series in SQLite with a two-level table
// organisation (§III-A): first-level tables hold run metadata (program
// name, measured events, execution times, and the names of the
// second-level tables); second-level tables hold the per-event time
// series of each run. This package reproduces that organisation as an
// embedded, file-backed store on the standard library.
//
// In memory the store is a set of per-benchmark shards, each behind its
// own lock, so concurrent analyses of different benchmarks never
// serialise on Put/Get/Flush. On disk the run is the unit, as a row is
// in the paper's tables: the store is a directory with one directory
// per benchmark and one file per run. A run file's head is the run's
// first-level row (read eagerly at Open); its body is the run's series
// (read when the benchmark's shard is first touched). Flush writes only
// the runs Put since the last flush, each atomically (temp file +
// rename) and byte-deterministically, so its cost follows the runs it
// adds, not the runs already stored. With SetMemBudget the store is
// memory-bounded: clean shards evict under an LRU byte budget and
// reload on demand, and StartWriteback flushes in the background so
// eviction can keep up, letting one daemon host catalogs far larger
// than RAM.
//
// Run files are the only format the store reads. Open refuses a store
// in an earlier format (a v1/v2 single file, the <path>.v2.bak an
// interrupted migrate left, or v3 .shard files) with an error naming
// the file, and leaves it as it is; the cmstore migrate of an earlier
// build (commit eff673a is the last that has it) converts one to run
// files.
package store

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// RunMeta is a first-level table row: everything about a run except the
// series data.
type RunMeta struct {
	// Benchmark is the program name.
	Benchmark string
	// RunID identifies the execution.
	RunID int
	// Mode is the sampling mode ("OCOE" or "MLPX").
	Mode string
	// Events lists the measured event names.
	Events []string
	// Intervals is the run length (the "execution time" column of the
	// paper's first-level table).
	Intervals int
	// SeriesTable names the second-level table holding this run's
	// series.
	SeriesTable string
}

// Record is a full run: metadata plus series.
type Record struct {
	Meta RunMeta
	// IPC is the fixed-counter IPC series.
	IPC []float64
	// Series maps event name to its sampled values.
	Series map[string][]float64
	// Embedding is the run's fingerprint embedding, when the writer
	// already computed it; the store neither keeps nor writes it.
	Embedding []float64
}

// DB is the two-level store: a set of per-benchmark shards, each behind
// its own lock. DB-level state (the shard map, the LRU list) is guarded
// by mu; lock order is flushMu before shard.mu before db.mu, and db.mu
// is never held while acquiring a shard lock.
type DB struct {
	path string // store path; "" = purely in-memory

	mu     sync.Mutex
	shards map[string]*shard
	lru    list.List // least-recently-used at the back; shard.elem guarded by mu

	flushMu sync.Mutex // serialises Flush/writeback/Compact

	budget   atomic.Int64 // eviction byte budget; <= 0 means unlimited
	resident atomic.Int64 // resident second-level bytes across loaded shards

	loads         atomic.Uint64
	evictions     atomic.Uint64
	writebacks    atomic.Uint64
	writebackErrs atomic.Uint64
	skipped       atomic.Int64 // records dropped at open or lazy load

	// damaged holds the files read since Open and found damaged, which
	// Compact removes; guarded by mu.
	damaged map[string]bool

	wbStop chan struct{}
	wbDone chan struct{}

	// failFlush, when set by tests, injects an I/O error before each
	// run file of the named benchmark is written.
	failFlush func(benchmark string) error
}

const ipcColumn = "__ipc__"

// Open opens (or creates) a store at path. An empty path creates a
// purely in-memory store that cannot be flushed; a path that does not
// exist opens empty, and the first Flush creates it. A directory opens
// as a store of run files: only each file's head is read, and series
// load lazily.
//
// Open is resilient to damage: run files that are corrupt, truncated,
// or internally inconsistent are skipped (and counted in Skipped /
// Stats.SkippedRecords) rather than failing the whole open — a damaged
// file loses that run, not the catalog. Only an unreadable path, a
// regular file at path, a v3 .shard file in the directory, or a
// missing path with a <path>.v2.bak beside it returns an error; the
// last three are stores in an earlier format, which Open names and
// leaves as they are.
func Open(path string) (*DB, error) {
	db := &DB{path: path, shards: make(map[string]*shard)}
	if path == "" {
		return db, nil
	}
	fi, err := os.Stat(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// An earlier build's cmstore migrate set the single-file store
		// aside as <path>.v2.bak while it wrote run files; after a crash
		// between its two renames the backup is the only copy of the
		// runs, and an empty store here would hide it.
		bak := path + ".v2.bak"
		if _, err := os.Stat(bak); err == nil {
			return nil, fmt.Errorf("store: %s does not exist, but %s, a v1/v2 single-file store an interrupted migrate set aside, does; rename it to %s and %s", path, bak, path, migrateHint)
		}
		return db, nil
	case err != nil:
		return nil, fmt.Errorf("store: open: %w", err)
	case !fi.IsDir():
		return nil, fmt.Errorf("store: %s is a file, not a directory of run files; if it is a v1/v2 single-file store, %s", path, migrateHint)
	}
	if err := db.openDir(); err != nil {
		return nil, err
	}
	return db, nil
}

// migrateHint ends Open's errors for a store in a format before run
// files.
const migrateHint = "convert the store with the cmstore migrate of an earlier build (commit eff673a is the last that has it)"

// Skipped reports how many records have been dropped so far while
// reading damaged files (0 for a healthy store). Because series load
// lazily, damage a run file's head does not reveal (a checksum
// mismatch, say) is discovered — and counted — on first touch of its
// benchmark, not at Open.
func (db *DB) Skipped() int {
	return int(db.skipped.Load())
}

// key builds the first-level primary key.
func key(benchmark string, runID int, mode string) string {
	return fmt.Sprintf("%s/%d/%s", benchmark, runID, mode)
}

// shardFor returns the benchmark's shard, creating it when create is
// set. It never holds a shard lock.
func (db *DB) shardFor(benchmark string, create bool) *shard {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.shards[benchmark]
	if s == nil && create {
		// A brand-new shard has no file, so it is born loaded.
		s = newShard(benchmark, true)
		db.shards[benchmark] = s
	}
	return s
}

// snapshotShards returns the shards sorted by benchmark name, without
// holding any shard lock.
func (db *DB) snapshotShards() []*shard {
	db.mu.Lock()
	out := make([]*shard, 0, len(db.shards))
	for _, s := range db.shards {
		out = append(out, s)
	}
	db.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].bench < out[j].bench })
	return out
}

// Put stores a record, replacing any previous record of the same
// (benchmark, run, mode). The event name "__ipc__" is reserved for the
// IPC column, and the names together must fit a run file's 16 MiB
// head.
func (db *DB) Put(rec Record) error {
	if rec.Meta.Benchmark == "" {
		return errors.New("store: record without benchmark name")
	}
	if rec.Meta.Mode == "" {
		return errors.New("store: record without mode")
	}
	if _, ok := rec.Series[ipcColumn]; ok {
		return fmt.Errorf("store: event name %q is reserved", ipcColumn)
	}
	k := key(rec.Meta.Benchmark, rec.Meta.RunID, rec.Meta.Mode)
	table := "series/" + k

	meta := rec.Meta
	meta.SeriesTable = table
	// The series map is the source of truth for the event list.
	meta.Events = meta.Events[:0:0]
	for ev := range rec.Series {
		meta.Events = append(meta.Events, ev)
	}
	sort.Strings(meta.Events)
	if meta.Intervals == 0 {
		meta.Intervals = len(rec.IPC)
	}
	if runHeadLen(meta) > maxRunHead {
		return errors.New("store: record names exceed a run file's head")
	}

	series := make(map[string][]float64, len(rec.Series)+1)
	for ev, vals := range rec.Series {
		series[ev] = append([]float64(nil), vals...)
	}
	if rec.IPC != nil {
		series[ipcColumn] = append([]float64(nil), rec.IPC...)
	}

	s := db.shardFor(meta.Benchmark, true)
	s.mu.Lock()
	s.load(db)
	if old, ok := s.metas[k]; ok {
		s.dropSeries(db, old.SeriesTable)
	}
	s.metas[k] = meta
	s.series[table] = series
	n := countSamples(series)
	s.samples += n
	db.resident.Add(n * bytesPerSample)
	s.markPending(k)
	s.mu.Unlock()
	db.touch(s)
	db.maybeEvict(s)
	return nil
}

// Get retrieves a record by key, loading the benchmark's shard if it
// was not resident.
func (db *DB) Get(benchmark string, runID int, mode string) (Record, bool) {
	var rec Record
	var ok bool
	if !db.readShard(benchmark, func(s *shard) {
		rec, ok = s.get(benchmark, runID, mode)
	}) {
		return Record{}, false
	}
	return rec, ok
}

// readShard runs fn with the benchmark's shard readable (loaded, lock
// held). It reports whether the benchmark has a shard at all.
func (db *DB) readShard(benchmark string, fn func(*shard)) bool {
	s := db.shardFor(benchmark, false)
	if s == nil {
		return false
	}
	s.mu.RLock()
	if s.loaded {
		fn(s)
		s.mu.RUnlock()
		db.touch(s)
		return true
	}
	s.mu.RUnlock()
	s.mu.Lock()
	s.load(db)
	fn(s)
	s.mu.Unlock()
	db.touch(s)
	db.maybeEvict(s)
	return true
}

// get reads one record (deep-copying the series) with the shard lock
// held.
func (s *shard) get(benchmark string, runID int, mode string) (Record, bool) {
	meta, ok := s.metas[key(benchmark, runID, mode)]
	if !ok {
		return Record{}, false
	}
	table := s.series[meta.SeriesTable]
	rec := Record{Meta: meta, Series: make(map[string][]float64, len(table))}
	for ev, vals := range table {
		cp := append([]float64(nil), vals...)
		if ev == ipcColumn {
			rec.IPC = cp
		} else {
			rec.Series[ev] = cp
		}
	}
	return rec, true
}

// List returns the first-level rows, sorted by benchmark, run, mode. It
// reads only shard metadata — no shard is loaded.
func (db *DB) List() []RunMeta {
	var out []RunMeta
	for _, s := range db.snapshotShards() {
		s.mu.RLock()
		for _, m := range s.metas {
			out = append(out, m)
		}
		s.mu.RUnlock()
	}
	sortMetas(out)
	return out
}

// sortMetas orders first-level rows by benchmark, run, mode.
func sortMetas(metas []RunMeta) {
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].Benchmark != metas[j].Benchmark {
			return metas[i].Benchmark < metas[j].Benchmark
		}
		if metas[i].RunID != metas[j].RunID {
			return metas[i].RunID < metas[j].RunID
		}
		return metas[i].Mode < metas[j].Mode
	})
}

// Len reports the number of stored runs.
func (db *DB) Len() int {
	n := 0
	for _, s := range db.snapshotShards() {
		s.mu.RLock()
		n += len(s.metas)
		s.mu.RUnlock()
	}
	return n
}

// ForEachRun calls fn for every stored run in deterministic
// (benchmark, runID, mode) order with a deep-copied record, loading
// one shard at a time — iteration over a catalog larger than the
// memory budget stays bounded because shards can evict behind the
// cursor. fn returning false stops the iteration early. This is the
// fingerprint index's rebuild hook: the order (and therefore the
// floating-point accumulation in anything built from it) is identical
// on every node holding the same records.
func (db *DB) ForEachRun(fn func(Record) bool) {
	for _, meta := range db.List() {
		rec, ok := db.Get(meta.Benchmark, meta.RunID, meta.Mode)
		if !ok {
			continue
		}
		if !fn(rec) {
			return
		}
	}
}

// Flush writes every run Put since the last flush, each to its own
// file atomically (temp file + rename) and byte-deterministically;
// untouched runs are not rewritten. Flush is a no-op when nothing
// changed, and an error for in-memory stores.
//
// The unit of atomicity is the run: after a process crash each run
// file holds either its old or its new contents.
func (db *DB) Flush() error {
	if db.path == "" {
		return errors.New("store: in-memory store cannot be flushed")
	}
	_, err := db.flush()
	return err
}

// flush performs one incremental flush pass and reports how many
// shards it wrote.
func (db *DB) flush() (int, error) {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	return db.flushLocked()
}

// flushLocked flushes every dirty shard and reports how many shards it
// wrote. The caller holds flushMu.
func (db *DB) flushLocked() (int, error) {
	written := 0
	for _, s := range db.snapshotShards() {
		wrote, err := db.flushShard(s)
		if wrote {
			written++
			// A written shard may be clean now; let it go if over budget.
			db.maybeEvict(nil)
		}
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// flushShard writes each of one shard's pending runs to its run file.
// It reports whether it wrote any.
func (db *DB) flushShard(s *shard) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty() {
		return false, nil
	}
	dir := filepath.Join(db.path, benchDirName(s.bench))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, fmt.Errorf("store: flush: %w", err)
	}
	wrote := false
	for _, k := range s.sortedPending() {
		if db.failFlush != nil {
			if err := db.failFlush(s.bench); err != nil {
				return wrote, fmt.Errorf("store: flush run %s: %w", k, err)
			}
		}
		meta := s.metas[k]
		if err := writeRun(dir, meta, s.series[meta.SeriesTable]); err != nil {
			return wrote, fmt.Errorf("store: flush run %s: %w", k, err)
		}
		delete(s.pending, k)
		wrote = true
	}
	return wrote, nil
}
