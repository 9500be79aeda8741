// Command cmstore inspects and maintains a CounterMiner
// performance-data store (the two-level run/series database written by
// the pipeline's -db option).
//
//	cmstore -db runs.db -stats
//	cmstore -db runs.db -list [-bench wordcount] [-mode MLPX] [-event ICACHE.MISSES]
//	cmstore -db runs.db -export -bench wordcount -run 101 -mode MLPX > run.csv
//	cmstore migrate -db runs.db    convert a legacy single-file store or
//	                               v3 shards to run files
//	cmstore compact -db runs.db    convert v3 shards to run files, drop
//	                               damaged runs' files, clean up stale
//	                               temp files
package main

import (
	"flag"
	"fmt"
	"os"

	"counterminer/internal/store"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "migrate":
			os.Exit(runMigrate(os.Args[2:]))
		case "compact":
			os.Exit(runCompact(os.Args[2:]))
		}
	}
	var (
		dbPath  = flag.String("db", "", "store path (required)")
		doStats = flag.Bool("stats", false, "print store statistics")
		doList  = flag.Bool("list", false, "list runs")
		doCSV   = flag.Bool("export", false, "export one run as CSV to stdout")
		bench   = flag.String("bench", "", "benchmark filter / export target")
		mode    = flag.String("mode", "", "mode filter / export target (OCOE or MLPX)")
		event   = flag.String("event", "", "keep only runs measuring this event")
		runID   = flag.Int("run", 0, "run ID for -export")
		minIv   = flag.Int("min-intervals", 0, "keep only runs at least this long")
	)
	flag.Parse()
	if *dbPath == "" {
		fmt.Fprintln(os.Stderr, "cmstore: -db required")
		os.Exit(2)
	}
	db, err := store.Open(*dbPath)
	if err != nil {
		fatal(err)
	}
	if n := db.Skipped(); n > 0 {
		fmt.Fprintf(os.Stderr, "cmstore: warning: skipped %d damaged record(s) in %s\n", n, *dbPath)
	}

	switch {
	case *doStats:
		s := db.Summarize()
		fmt.Printf("runs:       %d\n", s.Runs)
		fmt.Printf("benchmarks: %d\n", s.Benchmarks)
		fmt.Printf("samples:    %d\n", s.Samples)
		for m, n := range s.ByMode {
			fmt.Printf("  %s runs: %d\n", m, n)
		}
		if s.SkippedRecords > 0 {
			fmt.Printf("skipped:    %d damaged record(s) dropped at open\n", s.SkippedRecords)
		}
	case *doList:
		rows := db.Select(store.Query{
			Benchmark:    *bench,
			Mode:         *mode,
			Event:        *event,
			MinIntervals: *minIv,
		})
		fmt.Printf("%-20s %-6s %-5s %-10s %s\n", "benchmark", "run", "mode", "intervals", "events")
		for _, m := range rows {
			fmt.Printf("%-20s %-6d %-5s %-10d %d\n", m.Benchmark, m.RunID, m.Mode, m.Intervals, len(m.Events))
		}
	case *doCSV:
		if *bench == "" || *mode == "" {
			fmt.Fprintln(os.Stderr, "cmstore: -export needs -bench, -run, and -mode")
			os.Exit(2)
		}
		if err := db.ExportCSV(os.Stdout, *bench, *runID, *mode); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "cmstore: one of -stats, -list, -export required")
		os.Exit(2)
	}
}

// openForMaintenance parses a subcommand's -db flag and opens the
// store, reporting skipped records like the inspection modes do.
func openForMaintenance(cmd string, args []string) *store.DB {
	fs := flag.NewFlagSet("cmstore "+cmd, flag.ExitOnError)
	dbPath := fs.String("db", "", "store path (required)")
	fs.Parse(args)
	if *dbPath == "" {
		fmt.Fprintf(os.Stderr, "cmstore %s: -db required\n", cmd)
		os.Exit(2)
	}
	db, err := store.Open(*dbPath)
	if err != nil {
		fatal(err)
	}
	if n := db.Skipped(); n > 0 {
		fmt.Fprintf(os.Stderr, "cmstore: warning: skipped %d damaged record(s) in %s\n", n, *dbPath)
	}
	return db
}

// runMigrate converts a legacy single-file store, or a directory of v3
// shards, to run files (a no-op when the store already uses them). Just
// after Open, only an unconverted v3 shard is dirty.
func runMigrate(args []string) int {
	db := openForMaintenance("migrate", args)
	if !db.NeedsMigration() && db.ShardStats().Dirty == 0 {
		fmt.Println("cmstore: store already uses run files")
		return 0
	}
	if err := db.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "cmstore: migrate:", err)
		return 1
	}
	st := db.ShardStats()
	fmt.Printf("cmstore: migrated %d run(s) into %d shard(s)\n", db.Len(), st.Shards)
	return 0
}

// runCompact converts v3 shards to run files, removes damaged runs'
// files and stale temp files, and migrates a legacy single-file store.
func runCompact(args []string) int {
	db := openForMaintenance("compact", args)
	n, err := db.Compact()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmstore: compact:", err)
		return 1
	}
	if dropped := db.Skipped(); dropped > 0 {
		fmt.Printf("cmstore: dropped %d damaged record(s)\n", dropped)
	}
	fmt.Printf("cmstore: made %d change(s); %d run(s) in %d shard(s)\n", n, db.Len(), db.ShardStats().Shards)
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmstore:", err)
	os.Exit(1)
}
