package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Compact repairs the store directory. Every shard is loaded, which
// finds (and counts in Skipped) the runs damaged on disk, and pending
// runs are flushed; then the files found damaged since Open are
// removed, with the temp files of interrupted writes and the benchmark
// directories this leaves empty. A file is damaged when it was read and
// did not decode or match its checksum. One the OS failed to open or
// read (permissions, descriptor exhaustion, an I/O error) and one that
// decodes but is misnamed are left in place; their runs stay counted in
// Skipped. Healthy run files are left as they are — a replaced run
// overwrites its own file, so there is nothing else to reclaim. Compact
// returns the shards it flushed plus the entries it removed, and is an
// error for in-memory stores.
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
