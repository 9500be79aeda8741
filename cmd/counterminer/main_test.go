package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"counterminer/internal/store"
)

// TestCounterminerFlagValidation: a bad flag exits 2 with an error
// naming it, before any analysis runs.
func TestCounterminerFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined: -no-such-flag"},
		{[]string{"-bench", "wordcount", "-runs", "0"}, "-runs must be > 0"},
		{[]string{"-bench", "wordcount", "-min-runs", "4"}, "-min-runs must be in [0, 3]"},
		{[]string{"-bench", "wordcount", "-chaos", "1"}, "-chaos must be in [0, 1)"},
		{[]string{"-bench", "wordcount", "-cleaner", "knn"}, `unknown cleaner "knn"; candidates: threshold-knn`},
		{[]string{"-bench", "Wordcnt"}, `unknown benchmark "Wordcnt"; candidates:`},
		{[]string{"-bench", "wordcount", "-events", "BR_*,NO_SUCH_EVENT"}, `pattern "NO_SUCH_EVENT" matches no event`},
		{[]string{"-bench", "wordcount", "-csv", "run.csv"}, "-bench and -csv are mutually exclusive"},
		{nil, "-bench or -csv required"},
	} {
		var out, errOut bytes.Buffer
		if code := run(c.args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), c.want) {
			t.Errorf("run(%q) = %d, stderr %q; want 2 and %q", c.args, code, errOut.String(), c.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote %q to stdout", c.args, out.String())
		}
	}
}

// TestCounterminerChaosFailsStoreWrites: -chaos with -db injects the
// store errors its help text promises. Seed 3 at rate 0.5 collects all
// three runs and fails two of their writes: the degradation report
// counts them, each failure names the store, and only the third run
// reaches disk.
func TestCounterminerChaosFailsStoreWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.db")
	var out, errOut bytes.Buffer
	code := run([]string{
		"-bench", "wordcount", "-events", "BR_*,L2_RQSTS.*,ICACHE.MISSES,ISF",
		"-trees", "20", "-fast", "-min-runs", "1",
		"-chaos", "0.5", "-chaos-seed", "3", "-db", path,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	for _, want := range []string{
		"runs: 3/3 succeeded",
		"store write failures: 2\n",
		"store " + path + ": fault: injected store-put failure for wordcount/run 102",
		"store " + path + ": fault: injected store-put failure for wordcount/run 103",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, out.String())
		}
	}
	db, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if runs := db.List(); len(runs) != 1 || runs[0].RunID != 101 {
		t.Errorf("store holds %+v, want run 101 alone", runs)
	}
}
