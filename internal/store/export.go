package store

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Query filters the first-level table. Zero-valued fields match
// everything.
type Query struct {
	// Benchmark filters by program name.
	Benchmark string
	// Mode filters by sampling mode ("OCOE"/"MLPX").
	Mode string
	// Event keeps only runs that measured the named event.
	Event string
	// MinIntervals keeps only runs at least this long.
	MinIntervals int
}

// Select returns the first-level rows matching q, in List order.
func (db *DB) Select(q Query) []RunMeta {
	var out []RunMeta
	for _, m := range db.List() {
		if q.Benchmark != "" && m.Benchmark != q.Benchmark {
			continue
		}
		if q.Mode != "" && m.Mode != q.Mode {
			continue
		}
		if q.MinIntervals > 0 && m.Intervals < q.MinIntervals {
			continue
		}
		if q.Event != "" {
			found := false
			for _, ev := range m.Events {
				if ev == q.Event {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		out = append(out, m)
	}
	return out
}

// ExportCSV writes one run's series as CSV: a header of
// interval,<event...>,ipc followed by one row per interval (truncated
// to the shortest series).
func (db *DB) ExportCSV(w io.Writer, benchmark string, runID int, mode string) error {
	rec, ok := db.Get(benchmark, runID, mode)
	if !ok {
		return fmt.Errorf("store: no record %s/%d/%s", benchmark, runID, mode)
	}
	events := make([]string, 0, len(rec.Series))
	for ev := range rec.Series {
		events = append(events, ev)
	}
	sort.Strings(events)

	n := len(rec.IPC)
	for _, ev := range events {
		if len(rec.Series[ev]) < n {
			n = len(rec.Series[ev])
		}
	}

	cw := csv.NewWriter(w)
	header := append(append([]string{"interval"}, events...), "ipc")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for t := 0; t < n; t++ {
		row[0] = strconv.Itoa(t)
		for j, ev := range events {
			row[j+1] = strconv.FormatFloat(rec.Series[ev][t], 'g', -1, 64)
		}
		row[len(row)-1] = strconv.FormatFloat(rec.IPC[t], 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Stats summarises the store's contents.
type Stats struct {
	// Runs is the number of stored runs, Benchmarks the number of
	// distinct programs.
	Runs, Benchmarks int
	// Samples is the total number of stored values across all series.
	Samples int
	// SkippedRecords counts records dropped while opening a damaged
	// file (corrupt, truncated, or internally inconsistent entries).
	SkippedRecords int
	// ByMode counts runs per sampling mode.
	ByMode map[string]int
}

// Summarize computes store-wide statistics. Sample counts come from
// each shard's maintained accounting (read from the run files' heads
// at Open), so summarising never forces a lazy load.
func (db *DB) Summarize() Stats {
	s := Stats{ByMode: make(map[string]int), SkippedRecords: db.Skipped()}
	for _, sh := range db.snapshotShards() {
		sh.mu.RLock()
		if len(sh.metas) > 0 {
			s.Benchmarks++
		}
		for _, m := range sh.metas {
			s.Runs++
			s.ByMode[m.Mode]++
		}
		s.Samples += int(sh.samples)
		sh.mu.RUnlock()
	}
	return s
}
