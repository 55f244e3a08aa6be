// Command bench is the repository's end-to-end benchmark. It drives the
// wexp library, and wexpd in-process, through their public API on one of
// four workloads, checks every answer, and prints one line per metric
// followed by a one-line JSON summary. See README.md.
//
//	bench -workload exact|broadcast|million|service|all -seed N -seconds S -trace 0|1 [-spans FILE] [-out DIR]
//	bench compare -base DIR -head DIR
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// workers is the width of every engine's worker pool and of GOMAXPROCS:
// the benchmark is sized for a 2-core machine.
const workers = 2

var workloadNames = []string{"exact", "broadcast", "million", "service"}

// runConfig is what a workload run takes from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string // where a traced run writes its spans; "" for nowhere
}

// scales sizes every workload; tests run them small.
type scales struct {
	exact     exactScale
	broadcast broadcastScale
	million   millionScale
	service   serviceScale
}

var fullScale = scales{exactFull, broadcastFull, millionFull, serviceFull}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "exact, broadcast, million, service, or all (one process each)")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	secs := fs.Float64("seconds", 20, "how long the measurement runs")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the spans as JSON to this file")
	out := fs.String("out", "", "also save the run as JSON in this directory, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintln(stderr, "bench: usage: -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	if !knownWorkload(*workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	runtime.GOMAXPROCS(workers)
	cfg := runConfig{seed: *seed, seconds: *secs, trace: *trace == 1, spans: *spans}
	r, err := runWorkload(*workload, fullScale, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	if err := r.write(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := r.save(*out); err != nil {
			fmt.Fprintf(stderr, "bench: save run: %v\n", err)
			return 1
		}
	}
	if !r.correct() {
		return 1
	}
	return 0
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// runAll runs every workload in a process of its own, one after another.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames {
		cmd := exec.Command(exe, append(args, "-workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func runWorkload(name string, sc scales, cfg runConfig) (*report, error) {
	var r *report
	var err error
	switch name {
	case "exact":
		r, err = runStream(name, cfg, func() (streamWorkload, error) { return newExact(sc.exact, cfg.seed) })
	case "broadcast":
		r, err = runStream(name, cfg, func() (streamWorkload, error) { return newBroadcast(sc.broadcast, cfg.seed) })
	case "million":
		r, err = runStream(name, cfg, func() (streamWorkload, error) { return newMillion(sc.million, cfg.seed) })
	case "service":
		r, err = runService(sc.service, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	r.finalize()
	return r, nil
}

// streamWorkload is a closed-loop workload: one client runs a
// deterministic stream of ops over inputs built at set-up.
type streamWorkload interface {
	// window is how many ops every run executes, traced or not: they are
	// digested, and a traced run measures the layers over them.
	window() int
	// stride is the length of the workload's cycle of op kinds; a run
	// stops only at a multiple of it.
	stride() int
	// op runs op i, records its answer and returns its latency.
	op(ctx context.Context, i int, tr *tracer) (time.Duration, error)
	// reset forgets the recorded answers.
	reset()
	check(r *report)
	digest() string
	layers(r *report)
}

// runStream runs a closed-loop workload. Untraced, it measures for
// cfg.seconds. Traced, it runs the window untraced and then traced, which
// gives the per-layer metrics and the tracing overhead on the same ops.
func runStream(name string, cfg runConfig, build func() (streamWorkload, error)) (*report, error) {
	r := &report{Workload: name, Seed: cfg.seed, Trace: cfg.trace}
	w, setupS, err := repeatSetup(build, func(streamWorkload) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ctx := context.Background()
	loop := func(d time.Duration, tr *tracer) []time.Duration {
		lat, errs := closedLoop(d, w.window(), w.stride(), func(i int) (time.Duration, error) { return w.op(ctx, i, tr) })
		r.Attempted += len(lat) + len(errs)
		for _, err := range errs {
			r.opFailed(err)
		}
		return lat
	}
	if !cfg.trace {
		allocs := heapAllocs()
		lat := loop(time.Duration(cfg.seconds*float64(time.Second)), nil)
		if err := memoryMetrics(r, allocs, r.Attempted); err != nil {
			return nil, err
		}
		r.set("setup_s", setupS)
		closedLoopMetrics(r, lat)
	} else {
		plain := loop(0, nil)
		w.reset()
		tr := newTracer()
		traced := loop(0, tr)
		w.layers(r)
		r.set("harness.trace_overhead", ratio(sum(traced).Seconds(), sum(plain).Seconds())-1)
		selfTimeMetrics(r, tr)
		if err := writeSpans(cfg, tr); err != nil {
			return nil, err
		}
	}
	w.check(r)
	r.Digest = w.digest()
	return r, nil
}

func writeSpans(cfg runConfig, tr *tracer) error {
	if cfg.spans == "" {
		return nil
	}
	if err := tr.write(cfg.spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
