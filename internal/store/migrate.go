package store

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Formats before run files, all gob and all read only to convert them.
// Version 1 stored the whole database in one gob blob and version 2
// streamed independent records, both in a single file; the first Flush
// migrates such a store to a directory of run files. Version 3 made the
// store a directory with one .shard file per benchmark: a header, the
// shard's first level (an index of run metadata) and one series record
// per run; the first Flush after Open rewrites each one as run files.
const (
	formatVersion      = 2 // newest single-file format
	shardFormatVersion = 3 // per-benchmark .shard files
	shardSuffix        = ".shard"
)

// legacyBackupSuffix names the crash-recovery backup of a single-file
// store while it is being migrated to a directory. If a crash lands
// between the two migration renames, Open finds the backup and restores
// it; once the directory exists the backup is stale and removed.
const legacyBackupSuffix = ".v2.bak"

// persisted is the gob stream header of every format before run files
// (v1 also used its map fields; v2 and v3 only Version).
type persisted struct {
	Version     int
	FirstLevel  map[string]RunMeta
	SecondLevel map[string]map[string][]float64
}

// shardIndex is a v3 shard's first level: the benchmark it owns, the
// shard's total stored value count, and one RunMeta per run.
type shardIndex struct {
	Benchmark string
	Samples   int64
	Metas     []RunMeta
}

// seriesRecord is one run's second level inside a v3 shard file.
type seriesRecord struct {
	Key    string
	Series []diskSeries
}

// diskRecord is one version-2 record.
type diskRecord struct {
	Key    string
	Meta   RunMeta
	Series []diskSeries
}

// diskSeries is one event column of a v2 or v3 record.
type diskSeries struct {
	Event  string
	Values []float64
}

// v3Run is one run read from a v3 shard file.
type v3Run struct {
	meta  RunMeta
	table map[string][]float64
}

// canonicalRun returns a run read from an older format as Put would
// have stored it: the series are the source of truth for the event
// list, and the series table is named after the key. It reports false
// for a run Put would refuse or whose key disagrees with its metadata.
func canonicalRun(k string, meta RunMeta, table map[string][]float64) (RunMeta, bool) {
	if meta.Benchmark == "" || meta.Mode == "" || key(meta.Benchmark, meta.RunID, meta.Mode) != k {
		return meta, false
	}
	meta.SeriesTable = "series/" + k
	meta.Events = nil
	for ev := range table {
		if ev != ipcColumn {
			meta.Events = append(meta.Events, ev)
		}
	}
	sort.Strings(meta.Events)
	return meta, runHeadLen(meta) <= maxRunHead
}

// openShardFile merges a v3 shard file's index into the catalog; a run
// already read from a run file keeps that copy. A file whose head is
// unreadable, or a second file claiming the same benchmark, is skipped
// as one record. Open runs single-goroutine, so no locks are held.
func (db *DB) openShardFile(name string) {
	path := filepath.Join(db.path, name)
	idx, _, err := readShardFile(path, false)
	db.noteDamage(path, err)
	s := db.shards[idx.Benchmark]
	if err != nil || s != nil && s.v3 != "" {
		db.skipped.Add(1)
		return
	}
	if s == nil {
		s = newShard(idx.Benchmark, false)
		db.shards[idx.Benchmark] = s
	}
	s.v3 = name
	// A run in both layouts is counted twice until the shard loads and
	// recounts from the series it kept.
	s.samples += idx.Samples
	for _, m := range idx.Metas {
		if !validMeta(m) || m.Benchmark != idx.Benchmark {
			db.skipped.Add(1)
			continue
		}
		k := key(m.Benchmark, m.RunID, m.Mode)
		if _, ok := s.metas[k]; !ok {
			s.metas[k] = m
		}
	}
}

// decodeShardIndex decodes a v3 header and index from a file of the
// given size. Every stored value takes at least one byte, so a sample
// count outside [0, size] is damage; rejecting it also keeps store-wide
// sums from overflowing.
func decodeShardIndex(dec *gob.Decoder, size int64) (shardIndex, error) {
	var hdr persisted
	if err := dec.Decode(&hdr); err != nil {
		return shardIndex{}, err
	}
	if hdr.Version != shardFormatVersion {
		return shardIndex{}, fmt.Errorf("store: shard has format version %d, want %d", hdr.Version, shardFormatVersion)
	}
	var idx shardIndex
	if err := dec.Decode(&idx); err != nil {
		return shardIndex{}, err
	}
	if idx.Benchmark == "" {
		return shardIndex{}, errors.New("store: shard has no benchmark name")
	}
	if idx.Samples < 0 || idx.Samples > size {
		return shardIndex{}, fmt.Errorf("store: shard claims %d samples in %d bytes", idx.Samples, size)
	}
	return idx, nil
}

// readShardFile decodes a v3 shard file's header and first level and,
// when runs is set, its runs, canonicalised as Put would have stored
// them. Reading runs stops at the first decode error — a gob stream
// cannot be resynchronised past damage — keeping what it read.
func readShardFile(path string, runs bool) (shardIndex, map[string]v3Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return shardIndex{}, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return shardIndex{}, nil, err
	}
	dec := gob.NewDecoder(f)
	idx, err := decodeShardIndex(dec, fi.Size())
	if err != nil || !runs {
		return idx, nil, err
	}
	metas := make(map[string]RunMeta, len(idx.Metas))
	for _, m := range idx.Metas {
		if validMeta(m) && m.Benchmark == idx.Benchmark {
			metas[key(m.Benchmark, m.RunID, m.Mode)] = m
		}
	}
	out := make(map[string]v3Run, len(metas))
	for {
		var sr seriesRecord
		if err := dec.Decode(&sr); err != nil {
			return idx, out, nil
		}
		m, ok := metas[sr.Key]
		if !ok {
			continue
		}
		table := make(map[string][]float64, len(sr.Series))
		for _, ds := range sr.Series {
			table[ds.Event] = ds.Values
		}
		if meta, ok := canonicalRun(sr.Key, m, table); ok {
			out[sr.Key] = v3Run{meta, table}
		}
	}
}

// openLegacyFile loads a v1/v2 single-file store completely into
// per-benchmark shards. Every run is pending so the first Flush
// migrates the store to a directory of run files.
func (db *DB) openLegacyFile() error {
	f, err := os.Open(db.path)
	if err != nil {
		return fmt.Errorf("store: open: %w", err)
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	var img persisted
	if err := dec.Decode(&img); err != nil {
		return fmt.Errorf("store: decode %s: %w", db.path, err)
	}
	switch img.Version {
	case 1:
		db.loadLegacyBlob(img)
	case formatVersion:
		db.loadLegacyStream(dec)
	default:
		return fmt.Errorf("store: %s has format version %d, want <= %d", db.path, img.Version, formatVersion)
	}
	db.legacy = true
	return nil
}

// loadLegacyBlob imports a version-1 single-blob image, skipping
// records whose two levels are inconsistent.
func (db *DB) loadLegacyBlob(img persisted) {
	for k, meta := range img.FirstLevel {
		series, ok := img.SecondLevel[meta.SeriesTable]
		if !ok || !validMeta(meta) {
			db.skipped.Add(1)
			continue
		}
		db.adoptLegacy(k, meta, series)
	}
}

// loadLegacyStream imports version-2 records until the stream ends. A
// decode error (corruption or truncation) ends the load — a gob stream
// cannot be resynchronised — with everything already read retained and
// the broken tail counted as skipped.
func (db *DB) loadLegacyStream(dec *gob.Decoder) {
	for {
		var dr diskRecord
		if err := dec.Decode(&dr); err != nil {
			if !errors.Is(err, io.EOF) {
				db.skipped.Add(1)
			}
			return
		}
		if dr.Key == "" || len(dr.Series) == 0 || !validMeta(dr.Meta) {
			db.skipped.Add(1)
			continue
		}
		table := make(map[string][]float64, len(dr.Series))
		for _, ds := range dr.Series {
			table[ds.Event] = ds.Values
		}
		db.adoptLegacy(dr.Key, dr.Meta, table)
	}
}

// adoptLegacy places one legacy record into its benchmark's shard, or
// skips it when its key disagrees with its metadata. Open runs
// single-goroutine, so no locks are held.
func (db *DB) adoptLegacy(k string, meta RunMeta, series map[string][]float64) {
	meta, ok := canonicalRun(k, meta, series)
	if !ok {
		db.skipped.Add(1)
		return
	}
	s := db.shards[meta.Benchmark]
	if s == nil {
		s = newShard(meta.Benchmark, true)
		db.shards[meta.Benchmark] = s
	}
	s.dropSeries(db, meta.SeriesTable)
	s.metas[k] = meta
	s.series[meta.SeriesTable] = series
	n := countSamples(series)
	s.samples += n
	db.resident.Add(n * bytesPerSample)
	s.markPending(k, meta)
}

// NeedsMigration reports whether the store was opened from a legacy
// single-file image and is still waiting for the Flush that converts
// it to a directory of run files.
func (db *DB) NeedsMigration() bool {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	return db.legacy
}

// migrate converts a legacy single-file store into a directory of run
// files: every run is written into a temporary directory, the original
// file is parked under a backup name, the directory is renamed into
// place, and only then is the backup removed. A crash at any point
// leaves either the original file (possibly under the backup name,
// which Open recovers) or the completed directory — never neither. The
// caller holds flushMu. It returns the shards written.
func (db *DB) migrate() (int, error) {
	shards := db.snapshotShards()
	tmp, err := os.MkdirTemp(filepath.Dir(db.path), ".cmdb-mig-*")
	if err != nil {
		return 0, fmt.Errorf("store: migrate: %w", err)
	}
	written := 0
	for _, s := range shards {
		s.mu.Lock()
		wrote := len(s.metas) > 0
		err := db.migrateShard(tmp, s)
		s.mu.Unlock()
		if err != nil {
			os.RemoveAll(tmp)
			return 0, err
		}
		if wrote {
			written++
		}
	}
	bak := db.path + legacyBackupSuffix
	if err := os.Rename(db.path, bak); err != nil {
		os.RemoveAll(tmp)
		return 0, fmt.Errorf("store: migrate: %w", err)
	}
	if err := os.Rename(tmp, db.path); err != nil {
		// Best effort: put the original back so the store stays
		// openable in its legacy form.
		os.Rename(bak, db.path)
		os.RemoveAll(tmp)
		return 0, fmt.Errorf("store: migrate: %w", err)
	}
	os.Remove(bak)
	for _, s := range shards {
		s.mu.Lock()
		if len(s.metas) == 0 && !s.dirty() {
			s.dropped = true
			db.dropShard(s)
		}
		s.mu.Unlock()
	}
	db.legacy = false
	return written, nil
}

// migrateShard writes every run of s into its directory under root.
// Mutations that land after it re-dirty the shard and flush through the
// ordinary path; until the directory rename succeeds, legacy stays set
// and a retry rewrites every run regardless of pending keys. The caller
// holds s.mu.
func (db *DB) migrateShard(root string, s *shard) error {
	if len(s.metas) == 0 {
		s.pending = nil
		return nil
	}
	dir := filepath.Join(root, benchDirName(s.bench))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return fmt.Errorf("store: migrate: %w", err)
	}
	for _, k := range sortedKeys(s.metas) {
		if db.failFlush != nil {
			if err := db.failFlush(s.bench); err != nil {
				return fmt.Errorf("store: migrate shard %s: %w", s.bench, err)
			}
		}
		m := s.metas[k]
		if err := writeRun(dir, m, s.series[m.SeriesTable]); err != nil {
			return fmt.Errorf("store: migrate run %s: %w", k, err)
		}
	}
	s.pending = nil
	return nil
}

// Compact repairs the store directory. Every shard is loaded, which
// finds (and counts in Skipped) the runs damaged on disk; v3 shards and
// a legacy single file convert; then the files found damaged since
// Open are removed, with the temp files of interrupted writes and the
// benchmark directories this leaves empty. A file is damaged when it was
// read and did not decode or match its checksum. One the OS failed to
// open or read (permissions, descriptor exhaustion, an I/O error), one
// that decodes but is misnamed, and a second .shard file claiming a
// benchmark are left in place; their runs stay counted in Skipped.
// Healthy run files are left as they are — a replaced run overwrites
// its own file, so there is nothing else to reclaim. Compact returns
// the shards it flushed plus the entries it removed, and is an error
// for in-memory stores.
func (db *DB) Compact() (int, error) {
	if db.path == "" {
		return 0, errors.New("store: in-memory store cannot be compacted")
	}
	for _, s := range db.snapshotShards() {
		s.mu.Lock()
		s.load(db)
		s.mu.Unlock()
		db.maybeEvict(nil)
	}
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	n, err := db.flushLocked()
	if err != nil {
		return n, err
	}
	return n + db.sweep(), nil
}

// isDamage reports whether err from reading a store file means its
// contents are damaged, as opposed to the OS failing to open or read
// it, which is reported as an *fs.PathError.
func isDamage(err error) bool {
	var pe *fs.PathError
	return err != nil && !errors.As(err, &pe)
}

// noteDamage records path for Compact to remove when err, from reading
// it, is damage. Lock order allows a shard lock to be held.
func (db *DB) noteDamage(path string, err error) {
	if !isDamage(err) {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.damaged == nil {
		db.damaged = make(map[string]bool)
	}
	db.damaged[path] = true
}

// sweep removes the files found damaged that no live run has since
// overwritten, every temp file of an interrupted write, and the
// benchmark directories that leaves empty; it returns how many entries
// it removed. The caller holds flushMu, so no flush is writing.
func (db *DB) sweep() int {
	live := make(map[string]bool)
	for _, s := range db.snapshotShards() {
		dir := filepath.Join(db.path, benchDirName(s.bench))
		s.mu.RLock()
		for _, m := range s.metas {
			live[filepath.Join(dir, runFileName(m.RunID, m.Mode))] = true
		}
		s.mu.RUnlock()
	}
	db.mu.Lock()
	damaged := db.damaged
	db.damaged = nil
	db.mu.Unlock()
	n := 0
	for path := range damaged {
		if !live[path] && os.Remove(path) == nil {
			n++
		}
	}
	entries, err := os.ReadDir(db.path)
	if err != nil {
		return n
	}
	for _, e := range entries {
		path := filepath.Join(db.path, e.Name())
		switch {
		case strings.HasPrefix(e.Name(), ".cmdb-"):
			if os.RemoveAll(path) == nil {
				n++
			}
		case e.IsDir():
			n += sweepDir(path)
		}
	}
	return n
}

// sweepDir removes a benchmark directory's temp files, then the
// directory itself if that left it empty. It returns how many entries
// it removed.
func sweepDir(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".cmdb-") && os.RemoveAll(filepath.Join(dir, e.Name())) == nil {
			n++
		}
	}
	if os.Remove(dir) == nil {
		n++
	}
	return n
}
