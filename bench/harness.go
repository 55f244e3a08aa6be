package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is what one run of one workload produces. Metrics holds the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one — exactly the names BENCHMARK.json lists for that mode.
// Extra holds harness diagnostics that are printed and saved but are not
// part of the benchmark's contract.
type report struct {
	Workload  string
	Seed      uint64
	Trace     bool
	Attempted int
	Failed    int
	Metrics   []metric
	Extra     []metric
	// Digest hashes the answers to the first ops of the workload's
	// stream, which every run of a seed executes, traced or not.
	Digest string
	// Problems lists every failed correctness check.
	Problems []string
	// opErrors are the errors of failed ops, which Failed counts.
	opErrors []string

	values map[string]float64
}

func (r *report) opFailed(err error) {
	r.Failed++
	r.opErrors = append(r.opErrors, err.Error())
}

// set records the value of a metric of the run's mode.
func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// finalize lists the mode's metrics in order, 0 for any the workload did
// not reach.
func (r *report) finalize() {
	defs := endToEnd
	if r.Trace {
		defs = perLayer()
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		r.Metrics = append(r.Metrics, metric{d.name, r.values[d.name], d.unit})
	}
	for name := range r.values {
		if !known[name] {
			panic("bench: metric " + name + " is not in the metric list")
		}
	}
}

func (r *report) extra(name string, v float64, unit string) {
	r.Extra = append(r.Extra, metric{name, v, unit})
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// checkErr records err, if any, as a correctness problem.
func (r *report) checkErr(err error) {
	if err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
}

func (r *report) correct() bool { return len(r.Problems) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricMap(ms []metric) map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, m := range ms {
		out[m.Name] = metricValue{m.Value, m.Unit}
	}
	return out
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// savedRun is the -out file: the summary plus what compare needs to group
// and pair runs.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Digest   string `json:"digest"`
	summary
	Extra map[string]metricValue `json:"extra"`
}

func (r *report) summary() summary {
	return summary{r.correct(), r.Attempted, r.Failed, metricMap(r.Metrics)}
}

// write prints one line per metric, the result digest, and the JSON
// summary as the last line; correctness problems go to stderr.
func (r *report) write(stdout, stderr io.Writer) error {
	for _, e := range r.opErrors {
		fmt.Fprintf(stderr, "%s: op failed: %s\n", r.Workload, e)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(stderr, "%s: check failed: %s\n", r.Workload, p)
	}
	w := bufio.NewWriter(stdout)
	for _, m := range append(slices.Clone(r.Metrics), r.Extra...) {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s result_digest %s sha256\n", r.Workload, r.Digest)
	line, err := json.Marshal(r.summary())
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

// save writes the run to a new file in dir for the compare subcommand.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(savedRun{
		Workload: r.Workload, Seed: r.Seed, Trace: r.Trace, Digest: r.Digest,
		summary: r.summary(), Extra: metricMap(r.Extra),
	}, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if r.Trace {
		mode = 1
	}
	// The nanosecond stamp orders a directory's runs by time, which is how
	// compare pairs the runs of two directories.
	name := fmt.Sprintf("%s/%s-%019d-s%d-t%d.json", dir, r.Workload, time.Now().UnixNano(), r.Seed, mode)
	return os.WriteFile(name, append(body, '\n'), 0o644)
}

// --- statistics ---------------------------------------------------------------

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyMetrics sets the op latency percentiles shared by every workload.
func latencyMetrics(r *report, lat []time.Duration) {
	s := seconds(lat)
	r.set("op_p50_s", quantile(s, 0.50))
	r.set("op_p90_s", quantile(s, 0.90))
	r.set("op_p99_s", quantile(s, 0.99))
}

// heapAllocs is the cumulative bytes the process has allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// memoryMetrics sets the MiB allocated per op since heapAllocs read start,
// and reports the resident-set peak beside it. Allocation is fixed by the
// work done, so it repeats from run to run; the resident-set peak, which
// depends on when the collector ran relative to a burst of allocation,
// varied by 45% between runs of the broadcast workload.
func memoryMetrics(r *report, start uint64, ops int) error {
	r.set("alloc_mb_per_op", ratio(float64(heapAllocs()-start)/(1<<20), float64(ops)))
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.extra("peak_rss_mb", rss, "MiB")
	return nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// --- running ------------------------------------------------------------------

// setupRuns is how many times each workload builds its inputs; setup_s is
// the median, so one slow build on a shared machine does not move it.
const setupRuns = 3

// repeatSetup builds a workload's state setupRuns times, releasing all but
// the last, and returns it with the median build time in seconds.
func repeatSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var (
		state T
		times []float64
	)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			release(state)
			// Collect the released state now, so the next build neither
			// pays for it nor stacks its memory on top.
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		s, err := build()
		if err != nil {
			return state, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		state = s
	}
	return state, quantile(times, 0.5), nil
}

// closedLoop runs op(0), op(1), … back to back until at least minOps have
// run and the run has lasted d, stopping only after a multiple of stride
// ops, and returns the latency each op reports. A stride is one pass over
// a workload's fixed cycle of op kinds, so every run, short or long, has
// the same mix. An op times itself so that input preparation and answer
// bookkeeping stay out of its latency.
//
// Garbage is collected between ops, outside their timing, so that no op
// pays for the garbage of the ones before it.
func closedLoop(d time.Duration, minOps, stride int, op func(i int) (time.Duration, error)) (lat []time.Duration, errs []error) {
	deadline := time.Now().Add(d)
	for i := 0; i < minOps || i%stride != 0 || time.Now().Before(deadline); i++ {
		t, err := op(i)
		runtime.GC()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		lat = append(lat, t)
	}
	return lat, errs
}

// closedLoopMetrics reports a single-client closed loop: throughput is ops
// over the time spent in them.
func closedLoopMetrics(r *report, lat []time.Duration) {
	r.set("ops_per_s", ratio(float64(len(lat)), sum(lat).Seconds()))
	latencyMetrics(r, lat)
}

// digester hashes answers in a canonical JSON form.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) add(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Only plain data reaches the digester; failing to encode it is a
		// bug in the benchmark.
		panic(err)
	}
	d.h.Write(b)
	d.h.Write([]byte{'\n'})
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
