package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"counterminer/internal/store"
)

// TestCmstoreUnknownCommand: a positional argument that is no command
// exits 2 with an error naming it, before the -db check, for the
// inspection modes and for compact alike.
func TestCmstoreUnknownCommand(t *testing.T) {
	for _, c := range []struct {
		args []string
		name string
	}{
		{[]string{"bogus", "-db", "runs.db"}, "bogus"},
		{[]string{"migrate", "-db", "runs.db"}, "migrate"},
		{[]string{"-db", "runs.db", "-stats", "extra"}, "extra"},
		{[]string{"compact", "-db", "runs.db", "now"}, "now"},
	} {
		var out, errOut bytes.Buffer
		code := run(c.args, &out, &errOut)
		if want := `unknown command "` + c.name + `"`; code != 2 || !strings.Contains(errOut.String(), want) {
			t.Errorf("run(%v) = %d, stderr %q; want 2 and %s", c.args, code, errOut.String(), want)
		}
	}
}

// TestCmstoreListsAndCompacts drives the inspection modes and compact
// over a small store.
func TestCmstoreListsAndCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.db")
	db, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"sort", "wordcount"} {
		rec := store.Record{
			Meta:   store.RunMeta{Benchmark: bench, RunID: 1, Mode: "MLPX"},
			IPC:    []float64{1, 2, 3},
			Series: map[string][]float64{"A.EVENT": {4, 5, 6}},
		}
		if err := db.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-db", path, "-stats"}, "runs:       2\n"},
		{[]string{"-db", path, "-list", "-bench", "wordcount"}, "wordcount            1      MLPX  3          1\n"},
		{[]string{"-db", path, "-export", "-bench", "sort", "-run", "1", "-mode", "MLPX"}, "interval,A.EVENT,ipc\n0,4,1\n"},
		{[]string{"compact", "-db", path}, "made 0 change(s); 2 run(s) in 2 shard(s)"},
	} {
		var out, errOut bytes.Buffer
		if code := run(c.args, &out, &errOut); code != 0 || !strings.Contains(out.String(), c.want) {
			t.Errorf("run(%v) = %d, stdout %q, stderr %q; want 0 and %q", c.args, code, out.String(), errOut.String(), c.want)
		}
	}
}
