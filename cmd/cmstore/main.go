// Command cmstore inspects and maintains a CounterMiner
// performance-data store (the two-level run/series database written by
// the pipeline's -db option: a directory with one file per run).
//
//	cmstore -db runs.db -stats
//	cmstore -db runs.db -list [-bench wordcount] [-mode MLPX] [-event ICACHE.MISSES]
//	cmstore -db runs.db -export -bench wordcount -run 101 -mode MLPX > run.csv
//	cmstore compact -db runs.db    drop damaged runs' files, clean up
//	                               stale temp files
//
// A store in a format before run files (a single file, or .shard
// files) does not open; the cmstore migrate of an earlier build
// (commit eff673a is the last that has it) converts one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"counterminer/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compact" {
		return runCompact(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("cmstore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dbPath  = fs.String("db", "", "store path (required)")
		doStats = fs.Bool("stats", false, "print store statistics")
		doList  = fs.Bool("list", false, "list runs")
		doCSV   = fs.Bool("export", false, "export one run as CSV to stdout")
		bench   = fs.String("bench", "", "benchmark filter / export target")
		mode    = fs.String("mode", "", "mode filter / export target (OCOE or MLPX)")
		event   = fs.String("event", "", "keep only runs measuring this event")
		runID   = fs.Int("run", 0, "run ID for -export")
		minIv   = fs.Int("min-intervals", 0, "keep only runs at least this long")
	)
	db, code := open(fs, dbPath, args, stderr)
	if db == nil {
		return code
	}

	switch {
	case *doStats:
		s := db.Summarize()
		fmt.Fprintf(stdout, "runs:       %d\n", s.Runs)
		fmt.Fprintf(stdout, "benchmarks: %d\n", s.Benchmarks)
		fmt.Fprintf(stdout, "samples:    %d\n", s.Samples)
		for m, n := range s.ByMode {
			fmt.Fprintf(stdout, "  %s runs: %d\n", m, n)
		}
		if s.SkippedRecords > 0 {
			fmt.Fprintf(stdout, "skipped:    %d damaged record(s) dropped at open\n", s.SkippedRecords)
		}
	case *doList:
		rows := db.Select(store.Query{
			Benchmark:    *bench,
			Mode:         *mode,
			Event:        *event,
			MinIntervals: *minIv,
		})
		fmt.Fprintf(stdout, "%-20s %-6s %-5s %-10s %s\n", "benchmark", "run", "mode", "intervals", "events")
		for _, m := range rows {
			fmt.Fprintf(stdout, "%-20s %-6d %-5s %-10d %d\n", m.Benchmark, m.RunID, m.Mode, m.Intervals, len(m.Events))
		}
	case *doCSV:
		if *bench == "" || *mode == "" {
			fmt.Fprintln(stderr, "cmstore: -export needs -bench, -run, and -mode")
			return 2
		}
		if err := db.ExportCSV(stdout, *bench, *runID, *mode); err != nil {
			fmt.Fprintln(stderr, "cmstore:", err)
			return 1
		}
	default:
		fmt.Fprintln(stderr, "cmstore: one of -stats, -list, -export required")
		return 2
	}
	return 0
}

// open parses args into fs, whose -db flag sets dbPath, and opens the
// store, warning about skipped records. A positional argument left over
// is an unknown command. On failure it returns a nil store and the exit
// code.
func open(fs *flag.FlagSet, dbPath *string, args []string, stderr io.Writer) (*store.DB, int) {
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "%s: unknown command %q\n", fs.Name(), fs.Arg(0))
		return nil, 2
	case *dbPath == "":
		fmt.Fprintf(stderr, "%s: -db required\n", fs.Name())
		return nil, 2
	}
	db, err := store.Open(*dbPath)
	if err != nil {
		fmt.Fprintln(stderr, "cmstore:", err)
		return nil, 1
	}
	if n := db.Skipped(); n > 0 {
		fmt.Fprintf(stderr, "cmstore: warning: skipped %d damaged record(s) in %s\n", n, *dbPath)
	}
	return db, 0
}

// runCompact removes damaged runs' files and stale temp files.
func runCompact(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmstore compact", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "store path (required)")
	db, code := open(fs, dbPath, args, stderr)
	if db == nil {
		return code
	}
	n, err := db.Compact()
	if err != nil {
		fmt.Fprintln(stderr, "cmstore: compact:", err)
		return 1
	}
	if dropped := db.Skipped(); dropped > 0 {
		fmt.Fprintf(stdout, "cmstore: dropped %d damaged record(s)\n", dropped)
	}
	fmt.Fprintf(stdout, "cmstore: made %d change(s); %d run(s) in %d shard(s)\n", n, db.Len(), db.ShardStats().Shards)
	return 0
}
