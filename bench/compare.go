package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// maxLateness is the open-loop pacer lateness (p99) above which a service
// run's latencies are suspect: they then time the generator as much as
// the server.
const maxLateness = 1e-3

// e2eDef is an end-to-end metric as BENCHMARK.json defines it.
type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]e2eDef, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []e2eDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// loadRuns reads the runs saved in dir, oldest first.
func loadRuns(dir string) ([]savedRun, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var runs []savedRun
	for _, name := range names {
		body, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var r savedRun
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method, so that spreads here match those computed there.
func quartiles(xs []float64) (q1, q3 float64) {
	d := slices.Sorted(slices.Values(xs))
	n := len(d)
	if n == 1 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(3)
}

func median(xs []float64) float64 {
	d := slices.Sorted(slices.Values(xs))
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// comparison is one end-to-end metric of one workload across two sets of
// runs.
type comparison struct {
	workload, metric        string
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	wins                    float64 // share of pairs the head wins; ties count for neither
	verdict                 string
}

// judge applies the rules for claiming a gain or ruling out a regression:
// a gain needs the head to win nine pairs in ten and its median to beat
// the base's by more than the base's own spread; a regression is a median
// worse by more than the bound; a spread wider than the bound leaves the
// metric unresolved, unless every head run beats every base run.
func judge(base, head []float64, better string, bound float64) comparison {
	c := comparison{baseMed: median(base), headMed: median(head)}
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.headQ1, c.headQ3 = quartiles(head)
	sign := 1.0 // +1 when higher is better
	if better == "lower" {
		sign = -1
	}
	pairs := min(len(base), len(head))
	won := 0
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) > 0 {
			won++
		}
	}
	c.wins = ratio(float64(won), float64(pairs))
	worstHead, bestBase := slices.Min(head), slices.Max(base)
	if sign < 0 {
		worstHead, bestBase = slices.Max(head), slices.Min(base)
	}
	allBetter := sign*(worstHead-bestBase) > 0
	spread := max((c.baseQ3-c.baseQ1)/c.baseMed, (c.headQ3-c.headQ1)/c.headMed)
	worse := sign * (c.baseMed - c.headMed) / c.baseMed
	switch {
	case c.wins >= 0.9 && sign*(c.headMed-c.baseMed) > c.baseQ3-c.baseQ1:
		c.verdict = "improved"
	case spread > bound && !allBetter:
		c.verdict = "unresolved"
	case worse > bound:
		c.verdict = "regressed"
	default:
		c.verdict = "no worse"
	}
	return c
}

// countDrift reports every per-layer count that differs between traced
// runs of one workload and seed in runs.
func countDrift(runs []savedRun) []string {
	first := map[string]savedRun{}
	var out []string
	for _, r := range runs {
		if !r.Trace {
			continue
		}
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		f, ok := first[key]
		if !ok {
			first[key] = r
			continue
		}
		for name, m := range r.Metrics {
			if m.Unit == "count" && f.Metrics[name].Value != m.Value {
				out = append(out, fmt.Sprintf("%s: %s is %v in one run and %v in another", key, name, f.Metrics[name].Value, m.Value))
			}
		}
	}
	sort.Strings(out)
	return out
}

// lateRuns names the runs whose open-loop pacer ran late.
func lateRuns(runs []savedRun) []string {
	var out []string
	for _, r := range runs {
		late, ok := r.Extra["harness.gen_late_p99_s"]
		if !ok {
			late, ok = r.Metrics["harness.gen_late_p99_s"]
		}
		if ok && late.Value > maxLateness {
			out = append(out, fmt.Sprintf("%s seed %d: pacer lateness p99 %.3g s is over %g s", r.Workload, r.Seed, late.Value, maxLateness))
		}
	}
	return out
}

// compareRuns judges every end-to-end metric of every workload present in
// both sets of untraced runs.
func compareRuns(base, head []savedRun, defs []e2eDef) []comparison {
	values := func(runs []savedRun, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok && !r.Trace && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var out []comparison
	for _, w := range workloadNames {
		for _, d := range defs {
			b, h := values(base, w, d.Name), values(head, w, d.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			c := judge(b, h, d.Better, d.Bound)
			c.workload, c.metric = w, d.Name
			out = append(out, c)
		}
	}
	return out
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseDir := fs.String("base", "", "directory of the parent's saved runs")
	headDir := fs.String("head", "", "directory of the change's saved runs")
	if err := fs.Parse(args); err != nil || *baseDir == "" || *headDir == "" {
		fmt.Fprintln(stderr, "bench: usage: compare -base DIR -head DIR")
		return 2
	}
	// compare runs, like the benchmark, from the root of the repository.
	defs, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	base, err := loadRuns(*baseDir)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	head, err := loadRuns(*headDir)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return printComparison(stdout, base, head, defs)
}

// printComparison prints the comparison and returns the exit code: 1 when
// a metric regressed or a per-layer count drifted.
func printComparison(w io.Writer, base, head []savedRun, defs []e2eDef) int {
	code := 0
	fmt.Fprintf(w, "%-10s %-12s %-34s %-34s %5s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, c := range compareRuns(base, head, defs) {
		fmt.Fprintf(w, "%-10s %-12s %-34s %-34s %5.2f  %s\n", c.workload, c.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", c.baseMed, c.baseQ1, c.baseQ3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", c.headMed, c.headQ1, c.headQ3), c.wins, c.verdict)
		if c.verdict == "regressed" {
			code = 1
		}
	}
	for _, side := range []struct {
		name string
		runs []savedRun
	}{{"base", base}, {"head", head}} {
		for _, d := range countDrift(side.runs) {
			fmt.Fprintf(w, "%s: count drift: %s\n", side.name, d)
			code = 1
		}
		for _, l := range lateRuns(side.runs) {
			fmt.Fprintf(w, "%s: flagged: %s\n", side.name, l)
		}
	}
	return code
}
