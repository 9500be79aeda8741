// Command counterminerd is the CounterMiner analysis service: a
// long-running HTTP/JSON daemon that accepts analysis requests, runs
// them through the AnalyzeContext pipeline behind an
// admission-controlled job queue, deduplicates and caches results by
// content address, and exposes a metrics surface.
//
// Usage:
//
//	counterminerd -addr 127.0.0.1:7070 -db runs.db
//	curl -s localhost:7070/benchmarks
//	curl -s -X POST localhost:7070/analyze -d '{"benchmark":"wordcount","skip_eir":true}'
//	curl -s localhost:7070/metrics
//
// Endpoints:
//
//	POST /analyze        run (or reuse) one analysis; typed JSON errors,
//	                     429 when the queue is full, 503 while draining
//	POST /analyze/batch  a whole sweep in one round-trip: duplicates
//	                     collapse, jobs group by benchmark, one typed
//	                     result per job in request order; add ?async=1
//	                     for a 202 streaming handle instead
//	GET  /batch/{h}/events  the handle's results as Server-Sent Events,
//	                     one per completed job plus a terminal done
//	                     event; Last-Event-ID (or ?last_event_id=N)
//	                     resumes after a disconnect
//	GET  /batch/{h}      poll the handle's snapshot
//	DELETE /batch/{h}    cancel the handle's still-queued jobs
//	GET  /benchmarks     the analyzable catalog + the store's read side
//	GET  /metrics        counters, queue/cache/batch gauges, per-stage
//	                     latency
//	GET  /healthz        liveness (503 once draining)
//	GET  /readyz         readiness (503 while draining, leaderless, or
//	                     unregistered)
//
// The daemon also runs as one node of a fleet (-role): a coordinator
// keeps the whole endpoint contract above and dispatches admitted jobs
// to workers by consistent hashing over the benchmark identity; a
// worker registers with the coordinators in -join, heartbeats to keep
// its lease, and runs the pipeline. Several coordinators sharing a
// -lease-file elect a leader and fail over when it dies.
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight analyses
// finish, queued ones are canceled through the pipeline's *CancelError
// path, and the store is flushed atomically before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"counterminer/internal/clean"
	"counterminer/internal/cluster"
	"counterminer/internal/fault"
	"counterminer/internal/serve"
	"counterminer/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, factored for the end-to-end test: it serves until
// SIGINT/SIGTERM and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("counterminerd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:7070", "listen address (host:port; port 0 picks an ephemeral port)")
		workers       = fs.Int("workers", 2, "analyses executed concurrently")
		queueDepth    = fs.Int("queue", 8, "admitted jobs waiting beyond the executing ones (0 = admit only when a worker is idle)")
		cacheSize     = fs.Int("cache", 64, "result-cache capacity in completed analyses (0 = no caching, singleflight only)")
		budget        = fs.Duration("budget", 2*time.Minute, "per-request compute budget, applied from admission")
		grace         = fs.Duration("grace", 15*time.Second, "shutdown grace for in-flight HTTP exchanges")
		dbPath        = fs.String("db", "", "persist collected runs to this store path (also backs /benchmarks)")
		storeMem      = fs.String("store-mem", "", "store memory budget (e.g. 64MiB, 100MB): clean shards beyond it evict LRU and reload lazily (empty = unlimited)")
		storeWB       = fs.Duration("store-writeback", 0, "background flush interval for dirty store shards (0 = store default, -1ns = off)")
		anaWorkers    = fs.Int("analysis-workers", 0, "per-analysis worker count (0 = GOMAXPROCS); never changes results")
		batchMax      = fs.Int("batch-max", 64, "max jobs one /analyze/batch request may carry")
		cleanerDef    = fs.String("cleaner", "", "default data cleaner for requests that don't name one (threshold-knn or bayes; empty = threshold-knn)")
		streamHandles = fs.Int("stream-handles", 32, "async batch handles open at once; beyond it /analyze/batch?async=1 answers 429")
		streamHB      = fs.Duration("stream-heartbeat", 10*time.Second, "SSE comment-heartbeat interval on idle /batch/{handle}/events streams")

		role      = fs.String("role", "standalone", "node role: standalone, coordinator, or worker")
		nodeID    = fs.String("node-id", "", "stable node identity (default: role-<listen addr>)")
		join      = fs.String("join", "", "comma-separated coordinator base URLs (worker: where to register; coordinator: ignored)")
		advertise = fs.String("advertise", "", "base URL coordinators should dial this worker at (default http://<listen addr>)")
		leaseTTL  = fs.Duration("lease", 2*time.Second, "cluster lease TTL: worker heartbeat lease on a coordinator, leadership lease with -lease-file")
		heartbeat = fs.Duration("heartbeat", 500*time.Millisecond, "worker heartbeat interval (keep well under -lease)")
		leaseFile = fs.String("lease-file", "", "coordinator leadership lease file shared by all coordinators (empty = this coordinator always leads)")
		chaosSeed = fs.Int64("node-chaos-seed", 0, "seed for node-level chaos injection (0 = chaos off); for soak testing only")
		chaosKill = fs.Float64("node-chaos-kill", 0, "per-exec probability a worker kills itself under -node-chaos-seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *workers <= 0:
		fmt.Fprintln(stderr, "counterminerd: -workers must be > 0")
		return 2
	case *queueDepth < 0:
		fmt.Fprintln(stderr, "counterminerd: -queue must be >= 0")
		return 2
	case *cacheSize < 0:
		fmt.Fprintln(stderr, "counterminerd: -cache must be >= 0")
		return 2
	case *budget <= 0 || *grace <= 0:
		fmt.Fprintln(stderr, "counterminerd: -budget and -grace must be > 0")
		return 2
	case *anaWorkers < 0:
		fmt.Fprintln(stderr, "counterminerd: -analysis-workers must be >= 0")
		return 2
	case *batchMax <= 0:
		fmt.Fprintln(stderr, "counterminerd: -batch-max must be > 0")
		return 2
	case *streamHandles <= 0:
		fmt.Fprintln(stderr, "counterminerd: -stream-handles must be > 0")
		return 2
	case *streamHB <= 0:
		fmt.Fprintln(stderr, "counterminerd: -stream-heartbeat must be > 0")
		return 2
	case *role != "standalone" && *role != "coordinator" && *role != "worker":
		fmt.Fprintln(stderr, "counterminerd: -role must be standalone, coordinator, or worker")
		return 2
	case *role == "worker" && *join == "":
		fmt.Fprintln(stderr, "counterminerd: -role worker needs -join with at least one coordinator URL")
		return 2
	case *leaseTTL <= 0 || *heartbeat <= 0:
		fmt.Fprintln(stderr, "counterminerd: -lease and -heartbeat must be > 0")
		return 2
	case *heartbeat >= *leaseTTL:
		fmt.Fprintln(stderr, "counterminerd: -heartbeat must be shorter than -lease, or workers expire between beats")
		return 2
	}
	if _, err := clean.Lookup(*cleanerDef); err != nil {
		fmt.Fprintf(stderr, "counterminerd: unknown cleaner %q; candidates: %s\n",
			*cleanerDef, strings.Join(clean.Candidates(*cleanerDef), ", "))
		return 2
	}
	var storeMemBytes int64
	if *storeMem != "" {
		var err error
		storeMemBytes, err = store.ParseByteSize(*storeMem)
		if err != nil {
			fmt.Fprintln(stderr, "counterminerd: -store-mem:", err)
			return 2
		}
	}
	cfg := serve.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheSize:       *cacheSize,
		Budget:          *budget,
		ShutdownGrace:   *grace,
		StorePath:       *dbPath,
		StoreMemBytes:   storeMemBytes,
		StoreWriteback:  *storeWB,
		AnalysisWorkers: *anaWorkers,
		BatchMax:        *batchMax,
		DefaultCleaner:  *cleanerDef,
		StreamHandles:   *streamHandles,
		StreamHeartbeat: *streamHB,
	}
	// On the CLI, 0 means "none"; in serve.Config that is encoded as a
	// negative (0 selects the default).
	if *queueDepth == 0 {
		cfg.QueueDepth = -1
	}
	if *cacheSize == 0 {
		cfg.CacheSize = -1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before building the server: the worker's default advertise
	// address needs the resolved port when -addr asked for an ephemeral
	// one.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "counterminerd:", err)
		return 1
	}
	srv, err := serve.New(cfg)
	if err != nil {
		ln.Close()
		fmt.Fprintln(stderr, "counterminerd:", err)
		return 1
	}

	id := cluster.NodeID(*nodeID)
	if id == "" {
		id = cluster.NodeID(*role + "-" + ln.Addr().String())
	}
	var chaos *fault.NodeChaos
	if *chaosSeed != 0 {
		chaos = fault.NewNodeChaos(fault.NodeConfig{Seed: *chaosSeed, WorkerKillRate: *chaosKill})
	}

	switch *role {
	case "coordinator":
		var elector *cluster.Elector
		if *leaseFile != "" {
			elector, err = cluster.NewElector(cluster.ElectorConfig{
				ID:    id,
				Store: cluster.NewFileLease(*leaseFile),
				TTL:   *leaseTTL,
			})
			if err != nil {
				ln.Close()
				fmt.Fprintln(stderr, "counterminerd:", err)
				return 1
			}
		}
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			ID:        id,
			Elector:   elector,
			WorkerTTL: *leaseTTL,
		})
		if err != nil {
			ln.Close()
			fmt.Fprintln(stderr, "counterminerd:", err)
			return 1
		}
		srv.SetDispatch(coord.Dispatch)
		srv.SetReady(coord.Ready)
		srv.SetClusterStats(coord.Stats)
		for pattern, h := range coord.Routes() {
			srv.Route(pattern, h)
		}
		go coord.Run(ctx)
		if elector != nil {
			go elector.Run(ctx)
		}
		fmt.Fprintf(stdout, "counterminerd: coordinator %s (lease %s)\n", id, *leaseTTL)
	case "worker":
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		worker, err := cluster.NewWorker(cluster.WorkerConfig{
			ID:        id,
			Advertise: adv,
			Join:      splitJoin(*join),
			Heartbeat: *heartbeat,
			Exec:      srv.Execute,
			Chaos:     chaos,
		})
		if err != nil {
			ln.Close()
			fmt.Fprintln(stderr, "counterminerd:", err)
			return 1
		}
		srv.SetReady(worker.Ready)
		srv.SetClusterStats(worker.Stats)
		for pattern, h := range worker.Routes() {
			srv.Route(pattern, h)
		}
		go worker.Run(ctx)
		fmt.Fprintf(stdout, "counterminerd: worker %s advertising %s\n", id, adv)
	}

	fmt.Fprintf(stdout, "counterminerd: listening on %s\n", ln.Addr())
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintln(stderr, "counterminerd:", err)
		return 1
	}
	fmt.Fprintln(stdout, "counterminerd: drained, store flushed, exiting")
	return 0
}

// splitJoin parses the -join list, dropping empty entries and trailing
// slashes so URL concatenation stays clean.
func splitJoin(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSuffix(strings.TrimSpace(part), "/")
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
