package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCorruptionRunFileIsolated: each kind of damage to a run file — a
// flipped series byte, a garbage tail, a destroyed head, a run file
// copied under another run's name — loses exactly that run, counted
// once, and leaves its neighbours readable.
func TestCorruptionRunFileIsolated(t *testing.T) {
	path, db := shardedStore(t, "alpha", "beta")
	for run := 2; run <= 5; run++ {
		if err := db.Put(mediumRecord("alpha", run)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	damage := map[int]func([]byte) []byte{
		2: func(b []byte) []byte { b[len(b)-20] ^= 0x40; return b }, // only the checksum sees it
		3: func(b []byte) []byte { return append(b, "garbage"...) },
		4: func(b []byte) []byte { return b[:10] },
		5: func([]byte) []byte { // run 1's bytes under run 5's name
			raw, err := os.ReadFile(runFile(path, "alpha", 1))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		},
	}
	for run, fn := range damage {
		raw, err := os.ReadFile(runFile(path, "alpha", run))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runFile(path, "alpha", run), fn(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Runs 3–5 fail their heads at Open; run 2's head is intact, so
	// only loading its series finds the damage.
	if re.Skipped() != 3 || re.Len() != 3 {
		t.Errorf("after Open: Skipped = %d, Len = %d; want 3, 3", re.Skipped(), re.Len())
	}
	if _, ok := re.Get("alpha", 2, "MLPX"); ok {
		t.Error("run with a flipped series byte reported found")
	}
	if re.Skipped() != 4 || re.Len() != 2 {
		t.Errorf("after load: Skipped = %d, Len = %d; want 4, 2", re.Skipped(), re.Len())
	}
	for _, bench := range []string{"alpha", "beta"} {
		rec, ok := re.Get(bench, 1, "MLPX")
		if !ok || !sameRecord(rec, mediumRecord(bench, 1)) {
			t.Errorf("%s/1 damaged by its neighbours' corruption (found %v)", bench, ok)
		}
	}
}

// FuzzShardRunFile: whatever bytes a run file holds, reading it neither
// panics nor hangs. A file that decodes re-encodes to exactly its own
// bytes and reads back through the store; any other file is skipped and
// counted in Skipped.
func FuzzShardRunFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkRunFile(t, raw)
		if len(raw) >= 4 {
			// Random mutations rarely keep the checksum right; reseal
			// them so the decoder behind it is explored too.
			sealed := append([]byte(nil), raw[:len(raw)-4]...)
			checkRunFile(t, binary.LittleEndian.AppendUint32(sealed, runChecksum(sealed)))
		}
	})
}

// checkRunFile decodes raw, then stores it as wordcount/1/MLPX's run
// file and reads it through a store.
func checkRunFile(t *testing.T, raw []byte) {
	meta, table, err := decodeRun(raw)
	if err == nil && !bytes.Equal(encodeRun(meta, table), raw) {
		t.Fatal("a decoded run file re-encodes to other bytes")
	}
	valid := err == nil && key(meta.Benchmark, meta.RunID, meta.Mode) == "wordcount/1/MLPX"

	path := t.TempDir()
	file := runFile(path, "wordcount", 1)
	if err := os.Mkdir(filepath.Dir(file), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec, ok := db.Get("wordcount", 1, "MLPX")
	wantSkipped := 1
	if valid {
		wantSkipped = 0
	}
	if ok != valid || db.Skipped() != wantSkipped {
		t.Fatalf("Get found=%v, Skipped=%d for a file that decodes as this run: %v", ok, db.Skipped(), valid)
	}
	if !valid {
		return
	}
	if !reflect.DeepEqual(rec.Meta, meta) || len(rec.Series) != len(meta.Events) {
		t.Fatalf("store reads %+v, file decodes to %+v", rec.Meta, meta)
	}
	for ev, vals := range table {
		got := rec.Series[ev]
		if ev == ipcColumn {
			got = rec.IPC
		}
		if !sameBits(got, vals) {
			t.Fatalf("column %q reads differently through the store", ev)
		}
	}
}
