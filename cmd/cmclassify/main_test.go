package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"counterminer/internal/collector"
	"counterminer/internal/serve"
	"counterminer/internal/sim"
	"counterminer/internal/store"
	"counterminer/pkg/client"
)

// seedStore collects n MLPX runs per benchmark over events (nil: the
// full catalogue) and persists them at a fresh store path.
func seedStore(t *testing.T, benches []string, n int, events []string) string {
	t.Helper()
	dbPath := filepath.Join(t.TempDir(), "runs.db")
	db, err := store.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	coll := collector.New(sim.NewCatalogue())
	if events == nil {
		events = coll.Catalogue().Events()
	}
	for _, bench := range benches {
		p, err := sim.ProfileByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for runID := 1; runID <= n; runID++ {
			run, err := coll.Collect(p, runID, collector.MLPX, events)
			if err != nil {
				t.Fatal(err)
			}
			series := make(map[string][]float64)
			for _, ev := range run.Series.Events() {
				series[ev] = run.Series.MustGet(ev).Values
			}
			if err := db.Put(store.Record{
				Meta: store.RunMeta{
					Benchmark: bench, RunID: runID, Mode: run.Mode.String(),
					Events: run.Series.Events(), Intervals: len(run.IPC),
				},
				IPC:    run.IPC,
				Series: series,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return dbPath
}

func TestCmclassifyFlagValidation(t *testing.T) {
	cases := [][]string{
		{},
		{"-addr", "http://x", "-db", "runs.db", "-benchmark", "wordcount"},
		{"-db", "runs.db"},
		{"-db", "runs.db", "-benchmark", "wordcount", "-csv", "run.csv"},
		{"-db", "runs.db", "-csv", "run.csv", "-colocate", "sort"},
		{"-db", "runs.db", "-benchmark", "wordcount", "-runs", "0"},
		{"-db", "runs.db", "-benchmark", "wordcount", "-top", "-1"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr %q)", args, code, errOut.String())
		}
	}
}

func TestCmclassifyOffline(t *testing.T) {
	dbPath := seedStore(t, []string{"wordcount", "sort", "DataCaching"}, 2, nil)

	var out, errOut bytes.Buffer
	if code := run([]string{"-db", dbPath, "-benchmark", "wordcount"}, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"6 entries", "wordcount", "HiBench", "verdict: match"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// The same classification as machine-readable JSON.
	out.Reset()
	if code := run([]string{"-db", dbPath, "-benchmark", "wordcount", "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("run -json = %d, stderr %q", code, errOut.String())
	}
	var cls client.Classification
	if err := json.Unmarshal(out.Bytes(), &cls); err != nil {
		t.Fatalf("decode -json output: %v", err)
	}
	if len(cls.Matches) == 0 || cls.Matches[0].Benchmark != "wordcount" {
		t.Errorf("nearest = %+v, want wordcount first", cls.Matches)
	}
	if cls.Confidence < 0.9 || cls.Anomaly {
		t.Errorf("confidence/anomaly = %v/%v, want >= 0.9 and false", cls.Confidence, cls.Anomaly)
	}

	// A saturated, drifted profile is flagged anomalous.
	out.Reset()
	if code := run([]string{"-db", dbPath, "-benchmark", "sort", "-saturate"}, &out, &errOut); code != 0 {
		t.Fatalf("run -saturate = %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ANOMALY") {
		t.Errorf("saturated profile not flagged:\n%s", out.String())
	}
}

func TestCmclassifyCSV(t *testing.T) {
	dbPath := seedStore(t, []string{"wordcount", "sort"}, 2, nil)
	db, err := store.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(t.TempDir(), "run.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExportCSV(f, "sort", 1, "MLPX"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-db", dbPath, "-csv", csvPath}, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "sort") || !strings.Contains(text, "verdict: match") {
		t.Errorf("exported run did not classify back to sort:\n%s", text)
	}
}

func TestCmclassifyRemote(t *testing.T) {
	dbPath := seedStore(t, []string{"wordcount", "kmeans"}, 2, nil)
	s, err := serve.New(serve.Config{Workers: 1, QueueDepth: 4, CacheSize: 8, StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out, errOut bytes.Buffer
	if code := run([]string{"-addr", ts.URL, "-benchmark", "kmeans", "-top", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"kmeans", "verdict: match", "4 entries"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// Errors surface as exit 1 with the server's typed code.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-addr", ts.URL, "-benchmark", "nope"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown benchmark: run = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown_benchmark") {
		t.Errorf("stderr %q missing unknown_benchmark", errOut.String())
	}
}

// TestCmclassifyOfflineMatchesServer: for a benchmark probe, cmclassify
// offline and a serve.Server over the same store build the same index
// and give the same verdict, bit for bit — over a full-catalogue store,
// and over one whose runs share a smaller event set, which both collect
// the probe over.
func TestCmclassifyOfflineMatchesServer(t *testing.T) {
	served, err := sim.NewCatalogue().Select([]string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		events []string
	}{{"full catalogue", nil}, {"served events", served}} {
		t.Run(c.name, func(t *testing.T) {
			dbPath := seedStore(t, []string{"wordcount", "kmeans", "DataCaching"}, 2, c.events)

			var out, errOut bytes.Buffer
			if code := run([]string{"-db", dbPath, "-benchmark", "kmeans", "-runs", "2", "-json"}, &out, &errOut); code != 0 {
				t.Fatalf("run = %d, stderr %q", code, errOut.String())
			}
			var offline client.Classification
			if err := json.Unmarshal(out.Bytes(), &offline); err != nil {
				t.Fatalf("decode -json output: %v", err)
			}

			s, err := serve.New(serve.Config{Workers: 1, QueueDepth: 4, CacheSize: 8, StorePath: dbPath})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			resp, err := client.New(ts.URL).Classify(context.Background(), client.ClassifyRequest{Benchmark: "kmeans", Runs: 2})
			if err != nil {
				t.Fatal(err)
			}
			daemon := resp.Classification

			if offline.IndexVersion != daemon.IndexVersion || offline.Entries != 6 {
				t.Errorf("index version %s over %d entries offline, %s over %d served", offline.IndexVersion, offline.Entries, daemon.IndexVersion, daemon.Entries)
			}
			if math.Float64bits(offline.Confidence) != math.Float64bits(daemon.Confidence) {
				t.Errorf("confidence %v offline, %v served", offline.Confidence, daemon.Confidence)
			}
			if !reflect.DeepEqual(offline.Matches, daemon.Matches) || len(offline.Matches) == 0 || offline.Matches[0].Benchmark != "kmeans" {
				t.Errorf("matches offline %+v, served %+v; want kmeans first in both", offline.Matches, daemon.Matches)
			}
			if !reflect.DeepEqual(&offline, daemon) {
				t.Errorf("classification offline %+v, served %+v", offline, *daemon)
			}
		})
	}
}
