// Command wexpd is the wexp graph-analysis daemon: a stdlib-only
// HTTP/JSON service exposing the exact expansion engine, the spokesman
// portfolio, the Monte-Carlo broadcast simulator, and the E1–E16
// reproduction suite behind a content-addressed graph store, a memoized
// byte-level result cache with singleflight coalescing, and a cancellable
// job engine.
//
// Usage:
//
//	wexpd -addr :8080
//	wexpd -addr :8080 -cache-mb 256 -workers 8
//
// Quickstart:
//
//	curl -X POST 'localhost:8080/v1/graphs?family=hypercube&size=4'
//	curl 'localhost:8080/v1/expansion?family=hypercube&size=4&obj=wireless&alpha=0.5'
//	curl 'localhost:8080/v1/broadcast?family=cplus&size=32&protocol=decay&trials=200&async=1'
//	curl 'localhost:8080/v1/jobs/job-000001'
//	curl -X DELETE 'localhost:8080/v1/jobs/job-000001'
//	curl 'localhost:8080/metrics'
//
// See internal/service/README.md for the full API reference and the
// caching/determinism contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"wexp"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dataDir   = flag.String("data", "", "durable state directory (graphs, jobs WAL, checkpoints); empty = in-memory")
		cacheMB   = flag.Int64("cache-mb", 64, "result cache budget in MiB")
		maxGraphs = flag.Int("max-graphs", 0, "graph store capacity (0 = default 4096)")
		maxJobs   = flag.Int("max-jobs", 0, "retained job records (0 = default 1024)")
		workers   = flag.Int("workers", 0, "engine worker-pool width (0 = GOMAXPROCS; results identical at any width)")
		maxBudget = flag.Uint64("max-budget", 0, "per-request exact-enumeration budget cap (0 = engine default)")
		maxTrials = flag.Int("max-trials", 0, "per-request Monte-Carlo trial cap (0 = 1000000)")
	)
	flag.Parse()

	cfg := wexp.ServiceConfig{
		DataDir:    *dataDir,
		CacheBytes: *cacheMB << 20,
		MaxGraphs:  *maxGraphs,
		MaxJobs:    *maxJobs,
		Workers:    *workers,
		MaxBudget:  *maxBudget,
		MaxTrials:  *maxTrials,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("wexpd: serving on %s (cache %d MiB)\n", *addr, *cacheMB)
	if err := wexp.Serve(ctx, *addr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "wexpd:", err)
		os.Exit(1)
	}
}
