// Command experiments runs the reproduction harness (experiments E1–E16)
// through the sharded job engine and prints each experiment's tables with
// its PASS/FAIL verdict.
//
// Usage:
//
//	experiments                       run everything, full parameter grids
//	experiments -quick                reduced grids (seconds)
//	experiments -only E5,E9           a subset
//	experiments -workers 8            shard worker-pool width (output identical)
//	experiments -out artifacts/       also emit JSON artifacts + MANIFEST.json
//	experiments -resume artifacts/    resume an interrupted -out run (skips
//	                                  shards whose checkpoints match)
//	experiments -format json          print the run manifest as JSON
//	experiments -format markdown      Markdown (EXPERIMENTS.md is built this way)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	cfg := defaultConfig()
	flag.BoolVar(&cfg.Quick, "quick", cfg.Quick, "reduced parameter grids")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "experiment RNG seed")
	flag.IntVar(&cfg.Trials, "trials", cfg.Trials, "override per-point trial count (0 = default)")
	flag.StringVar(&cfg.Only, "only", cfg.Only, "comma-separated experiment ids (default: all)")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "shard worker-pool width (0 = GOMAXPROCS; results identical at any width)")
	flag.StringVar(&cfg.Out, "out", cfg.Out, "directory for JSON artifacts, checkpoints and MANIFEST.json")
	flag.StringVar(&cfg.Resume, "resume", cfg.Resume, "resume an interrupted run from this output directory")
	flag.StringVar(&cfg.Format, "format", cfg.Format, "output format: table, markdown, csv or json")
	flag.Parse()

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		// Registry errors already carry the package prefix.
		fmt.Fprintf(os.Stderr, "experiments: %s\n",
			strings.TrimPrefix(err.Error(), "experiments: "))
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2) // bad invocation
		}
		os.Exit(1) // runtime failure
	}
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) failed\n", rep.Failures)
		os.Exit(1)
	}
}
