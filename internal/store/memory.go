package store

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SetMemBudget bounds the bytes of second-level series data kept
// resident across shards. When the budget is exceeded, shards are
// evicted least-recently-used first and reload lazily on next touch.
// A shard holding mutations not yet flushed is never evicted — flush
// it, or run StartWriteback, to make it evictable. A budget <= 0 (the
// default) is unlimited.
//
// The budget is a target, not a hard cap: the shard being served is
// never evicted, and a working set of shards with unflushed mutations
// can hold memory until written back.
func (db *DB) SetMemBudget(bytes int64) {
	db.budget.Store(bytes)
	db.maybeEvict(nil)
}

// touch marks the shard most-recently-used.
func (db *DB) touch(s *shard) {
	db.mu.Lock()
	if s.elem == nil {
		s.elem = db.lru.PushFront(s)
	} else {
		db.lru.MoveToFront(s.elem)
	}
	db.mu.Unlock()
}

// maybeEvict evicts shards with no unflushed mutation,
// least-recently-used first, until the resident series bytes fit the
// budget. keep, when non-nil, names the shard just served — it is
// never evicted in this pass.
func (db *DB) maybeEvict(keep *shard) {
	budget := db.budget.Load()
	if budget <= 0 || db.resident.Load() <= budget {
		return
	}
	// Snapshot candidates oldest-first without holding db.mu across
	// shard locks (lock order: shard.mu before db.mu).
	db.mu.Lock()
	candidates := make([]*shard, 0, db.lru.Len())
	for e := db.lru.Back(); e != nil; e = e.Prev() {
		candidates = append(candidates, e.Value.(*shard))
	}
	db.mu.Unlock()
	for _, s := range candidates {
		if db.resident.Load() <= budget {
			return
		}
		if s == keep {
			continue
		}
		s.mu.Lock()
		if s.evictable() {
			s.evict(db)
		}
		s.mu.Unlock()
	}
}

// ShardStats is the store's shard-level accounting, surfaced by
// counterminerd's /metrics.
type ShardStats struct {
	// Shards counts the catalog's benchmarks; Loaded how many have
	// their series resident; Dirty how many carry unflushed runs.
	Shards, Loaded, Dirty int
	// ResidentBytes is the series payload held in memory;
	// MemBudgetBytes the eviction target (0 = unlimited).
	ResidentBytes, MemBudgetBytes int64
	// Loads and Evictions count lazy shard loads and LRU evictions.
	Loads, Evictions uint64
	// WritebackFlushes counts shards the background writeback
	// goroutine flushed; WritebackErrors its failed passes.
	WritebackFlushes, WritebackErrors uint64
	// SkippedRecords counts records dropped reading damaged files.
	SkippedRecords int
}

// ShardStats reports the store's current shard accounting.
func (db *DB) ShardStats() ShardStats {
	st := ShardStats{
		MemBudgetBytes:   db.budget.Load(),
		ResidentBytes:    db.resident.Load(),
		Loads:            db.loads.Load(),
		Evictions:        db.evictions.Load(),
		WritebackFlushes: db.writebacks.Load(),
		WritebackErrors:  db.writebackErrs.Load(),
		SkippedRecords:   int(db.skipped.Load()),
	}
	for _, s := range db.snapshotShards() {
		st.Shards++
		s.mu.RLock()
		if s.loaded {
			st.Loaded++
		}
		if s.dirty() {
			st.Dirty++
		}
		s.mu.RUnlock()
	}
	return st
}

// defaultWritebackInterval paces the background writeback goroutine
// when StartWriteback is given a non-positive interval.
const defaultWritebackInterval = 2 * time.Second

// StartWriteback launches a background goroutine that flushes every
// interval (incrementally — only runs changed since the last flush are
// written) and then evicts down to the memory budget, so a daemon's
// steady mutation load keeps shards evictable instead of pinning them
// dirty in memory. The returned stop function halts the goroutine and
// waits for an in-progress pass; it is idempotent. Callers still run a
// final Flush at shutdown for the mutations after the last tick.
// StartWriteback on an in-memory store is a no-op.
func (db *DB) StartWriteback(interval time.Duration) (stop func()) {
	if db.path == "" {
		return func() {}
	}
	if interval <= 0 {
		interval = defaultWritebackInterval
	}
	stopc := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopc:
				return
			case <-t.C:
				n, err := db.flush()
				db.writebacks.Add(uint64(n))
				if err != nil {
					db.writebackErrs.Add(1)
				}
				db.maybeEvict(nil)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopc)
			<-done
		})
	}
}

// byteUnits are ParseByteSize's suffixes, longest first so "kib" is
// never read as "k".
var byteUnits = []struct {
	suffix string
	mult   int64
}{
	{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
	{"kb", 1e3}, {"mb", 1e6}, {"gb", 1e9},
	{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
}

// ParseByteSize parses a human-readable byte size: a plain integer is
// bytes, and the suffixes KB/MB/GB (decimal) and KiB/MiB/GiB (binary,
// also accepted as K/M/G) scale it. Parsing is case-insensitive and a
// fractional value like "1.5GiB" is allowed. Any other suffix, a
// negative or non-finite number, and a size beyond int64 are errors.
// Used by counterminerd's -store-mem flag.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	num, mult := t, int64(1)
	for _, u := range byteUnits {
		if strings.HasSuffix(t, u.suffix) {
			num, mult = strings.TrimSpace(strings.TrimSuffix(t, u.suffix)), u.mult
			break
		}
	}
	// An integer parses exactly, so every in-range plain size
	// round-trips; anything else must scale to a finite value in
	// [0, 2^63).
	if n, err := strconv.ParseInt(num, 10, 64); err == nil {
		if n >= 0 && n <= math.MaxInt64/mult {
			return n * mult, nil
		}
	} else if f, err := strconv.ParseFloat(num, 64); err == nil {
		if v := f * float64(mult); v >= 0 && v < 0x1p63 {
			return int64(v), nil
		}
	}
	return 0, fmt.Errorf("store: invalid byte size %q", s)
}
