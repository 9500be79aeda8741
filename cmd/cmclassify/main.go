// Command cmclassify classifies a workload profile against a
// fingerprint index: which stored workloads does this profile behave
// like, with what confidence, and is it an anomaly?
//
// Remote mode asks a running counterminerd (the index lives in the
// daemon, rebuilt from its store):
//
//	cmclassify -addr http://127.0.0.1:7070 -benchmark wordcount
//	cmclassify -addr http://127.0.0.1:7070 -csv run.csv
//
// Offline mode builds the index directly from a store on disk — no
// daemon required — and classifies against it in-process:
//
//	cmclassify -db runs.db -benchmark wordcount
//	cmclassify -db runs.db -csv run.csv
//
// -saturate drifts the profile (counter saturation plus a quadratic
// ramp) before classifying, demonstrating the anomaly verdict on a
// workload the index has never seen. -json emits the machine-readable
// classification instead of the human summary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	counterminer "counterminer"
	"counterminer/internal/collector"
	"counterminer/internal/fingerprint"
	"counterminer/internal/serve"
	"counterminer/internal/sim"
	"counterminer/internal/store"
	"counterminer/pkg/client"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmclassify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "", "counterminerd base URL (remote mode)")
		dbPath   = fs.String("db", "", "store path (offline mode: build the index locally)")
		bench    = fs.String("benchmark", "", "benchmark to profile and classify")
		colocate = fs.String("colocate", "", "second benchmark sharing the cluster")
		csvPath  = fs.String("csv", "", "classify an exported run (cmstore -export layout) instead of a benchmark")
		runs     = fs.Int("runs", 1, "benchmark executions to embed (benchmark mode)")
		seed     = fs.Int64("seed", 0, "collection seed (benchmark mode; 0 = default)")
		top      = fs.Int("top", 0, "nearest clusters to report (0 = server default)")
		saturate = fs.Bool("saturate", false, "drift the profile before classifying (anomaly demo)")
		asJSON   = fs.Bool("json", false, "emit the raw classification as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cmclassify: "+format+"\n", a...)
		return 2
	}
	switch {
	case *addr == "" && *dbPath == "":
		return fail("one of -addr (remote) or -db (offline) required")
	case *addr != "" && *dbPath != "":
		return fail("-addr and -db are mutually exclusive")
	case *bench == "" && *csvPath == "":
		return fail("one of -benchmark or -csv required")
	case *bench != "" && *csvPath != "":
		return fail("-benchmark and -csv are mutually exclusive")
	case *csvPath != "" && *colocate != "":
		return fail("-colocate only applies to -benchmark")
	case *runs <= 0:
		return fail("-runs must be > 0, got %d", *runs)
	case *top < 0:
		return fail("-top must be >= 0, got %d", *top)
	}

	// Resolve the profile to classify. A CSV is loaded as-is; a
	// saturated benchmark is collected locally so the drift can be
	// applied to the raw matrix before embedding.
	var ds *counterminer.DataSet
	if *csvPath != "" {
		f, err := os.Open(*csvPath)
		if err != nil {
			return fail("%v", err)
		}
		loaded, err := counterminer.LoadCSV(f)
		f.Close()
		if err != nil {
			return fail("%v", err)
		}
		ds = loaded
	} else if *saturate {
		loaded, err := collectDataSet(*bench, *colocate, *runs, *seed)
		if err != nil {
			return fail("%v", err)
		}
		ds = loaded
	}
	if ds != nil && *saturate {
		drift(ds)
	}

	ctx := context.Background()
	var (
		cls *client.Classification
		err error
	)
	if *addr != "" {
		cls, err = classifyRemote(ctx, *addr, ds, *bench, *colocate, *runs, *seed, *top)
	} else {
		cls, err = classifyOffline(ctx, *dbPath, ds, *bench, *colocate, *runs, *seed, *top)
	}
	if err != nil {
		fmt.Fprintf(stderr, "cmclassify: %v\n", err)
		return 1
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cls); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	printClassification(stdout, cls)
	return 0
}

// collectDataSet gathers the benchmark's runs from the simulated
// cluster into one raw matrix, concatenating the runs' intervals.
func collectDataSet(bench, colocate string, runs int, seed int64) (*counterminer.DataSet, error) {
	prof, err := sim.ProfileByName(bench)
	if err != nil {
		return nil, err
	}
	if colocate != "" {
		other, err := sim.ProfileByName(colocate)
		if err != nil {
			return nil, err
		}
		prof = sim.Colocate(prof, other)
	}
	coll := collector.New(sim.NewCatalogue())
	events := coll.Catalogue().Events()
	ds := &counterminer.DataSet{Events: events}
	for r := 0; r < runs; r++ {
		run, err := coll.Collect(prof, int(seed)*1000+r+1, collector.MLPX, events)
		if err != nil {
			return nil, err
		}
		X, y, err := run.TrainingMatrix(events)
		if err != nil {
			return nil, err
		}
		ds.X = append(ds.X, X...)
		ds.Y = append(ds.Y, y...)
	}
	return ds, nil
}

// drift saturates the profile: every counter is scaled far out of its
// observed range with a quadratic ramp layered on top, and the IPC is
// pinned near zero. No stored workload behaves like this.
func drift(ds *counterminer.DataSet) {
	for i := range ds.X {
		for j := range ds.X[i] {
			ds.X[i][j] = ds.X[i][j]*80 + float64(i*i)*5e3
		}
		ds.Y[i] = 0.005
	}
}

// classifyRemote sends the request to a running counterminerd.
func classifyRemote(ctx context.Context, addr string, ds *counterminer.DataSet, bench, colocate string, runs int, seed int64, top int) (*client.Classification, error) {
	c := client.New(addr)
	req := client.ClassifyRequest{TopK: top}
	if ds != nil {
		req.Events, req.X, req.IPC = ds.Events, ds.X, ds.Y
	} else {
		req.Benchmark, req.Colocate, req.Runs, req.Seed = bench, colocate, runs, seed
	}
	resp, err := c.Classify(ctx, req)
	if err != nil {
		return nil, err
	}
	return resp.Classification, nil
}

// classifyOffline builds the fingerprint index from the store at
// dbPath with the daemon's own entries, options and event vocabulary
// (internal/serve) — same entries, same order-independent clustering,
// same version as its startup rebuild — and classifies against it
// in-process.
func classifyOffline(ctx context.Context, dbPath string, ds *counterminer.DataSet, bench, colocate string, runs int, seed int64, top int) (*client.Classification, error) {
	db, err := store.Open(dbPath)
	if err != nil {
		return nil, err
	}
	var entries []fingerprint.Entry
	db.ForEachRun(func(rec store.Record) bool {
		entries = append(entries, serve.RunEntry(rec))
		return true
	})
	ix := fingerprint.NewIndex()
	ix.Fill(entries)

	var vec []float64
	if ds != nil {
		if vec, err = ds.Fingerprint(); err != nil {
			return nil, err
		}
	} else {
		p, err := counterminer.NewPipeline(counterminer.Options{Runs: runs, Seed: seed, Events: serve.StoreEventVocabulary(db)})
		if err != nil {
			return nil, err
		}
		if vec, err = p.FingerprintContext(ctx, bench, colocate); err != nil {
			return nil, err
		}
	}
	res, err := ix.Classify(vec, top)
	if err != nil {
		return nil, err
	}
	return serve.Classification(vec, res), nil
}

// printClassification renders the human summary.
func printClassification(w io.Writer, cls *client.Classification) {
	fmt.Fprintf(w, "index: %d entries in %d clusters (version %s)\n",
		cls.Entries, cls.Clusters, cls.IndexVersion)
	fmt.Fprintln(w, "nearest workloads:")
	for i, m := range cls.Matches {
		suite := m.Suite
		if suite == "" {
			suite = "?"
		}
		fmt.Fprintf(w, "  %d. %-24s %-12s distance %.4f  members %d\n",
			i+1, m.Benchmark, suite, m.Distance, m.Members)
	}
	fmt.Fprintf(w, "confidence: %.3f\n", cls.Confidence)
	if len(cls.Suites) > 0 {
		parts := make([]string, 0, len(cls.Suites))
		for _, s := range cls.Suites {
			parts = append(parts, fmt.Sprintf("%s %.3f", s.Suite, s.Confidence))
		}
		fmt.Fprintf(w, "suites: %s\n", strings.Join(parts, ", "))
	}
	if cls.Anomaly {
		fmt.Fprintf(w, "verdict: ANOMALY (score %.2f) — profile matches no stored workload\n", cls.AnomalyScore)
	} else {
		fmt.Fprintf(w, "verdict: match (anomaly score %.2f)\n", cls.AnomalyScore)
	}
}
