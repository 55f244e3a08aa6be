package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"wexp"
)

// tinyScale runs every workload in well under a second.
var tinyScale = scales{
	exact: exactScale{
		betaN: []int{56, 60, 64}, betaMaxK: 5,
		smallN: []int{10, 12}, wirelessMaxK: 3,
		bipS: []int{8, 10}, bipMaxK: 4,
		budget: 1 << 20, pool: 40, window: 20,
	},
	broadcast: broadcastScale{
		erN: 128, erP: []float64{0.05, 0.1}, torus: 8, cubeD: 6,
		decayTrials: 4, spokesmanTrials: 2, maxRounds: 64,
	},
	million: millionScale{n: 2000, m: 8000, trials: 2, maxRounds: 20, window: 2},
	service: serviceScale{
		poolGraphs: 16, primed: 16, bigN: 500, bigM: 1500,
		rate: 400, openShare: 0.5, capacityRequests: 200,
	},
}

func tinyConfig(trace bool) runConfig {
	return runConfig{seed: 1, seconds: 0.4, trace: trace}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []e2eDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json lists exactly
// the workloads and metrics the program emits, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", layer, perLayer())
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// scale: both must pass every check, emit every metric with its unit, and
// agree on the answers to the ops they share.
func TestWorkloadsTiny(t *testing.T) {
	b := loadBenchmark(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var digests []string
			for _, trace := range []bool{false, true} {
				r, err := runWorkload(name, tinyScale, tinyConfig(trace))
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("trace=%t: attempted %d failed %d problems %v errors %v", trace, r.Attempted, r.Failed, r.Problems, r.opErrors)
				}
				got := metricMap(r.Metrics)
				want := map[string]string{}
				if trace {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(got) != len(want) {
					t.Errorf("trace=%t: %d metrics, BENCHMARK.json lists %d", trace, len(got), len(want))
				}
				for n, unit := range want {
					if m, ok := got[n]; !ok || m.Unit != unit {
						t.Errorf("trace=%t: metric %s = %+v, want unit %s", trace, n, m, unit)
					}
				}
				if !trace {
					for n, m := range got {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s reads %v", n, m.Value)
						}
					}
				}
				digests = append(digests, r.Digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("untraced digest %s, traced %s", digests[0], digests[1])
			}
		})
	}
}

// TestOutputFormat checks the printed lines and the JSON last line.
func TestOutputFormat(t *testing.T) {
	r := &report{Workload: "exact", Attempted: 3}
	r.set("ops_per_s", 2.5)
	r.finalize()
	var out, errs strings.Builder
	if err := r.write(&out, &errs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[1] != "exact ops_per_s 2.5 op/s" {
		t.Errorf("metric line %q", lines[1])
	}
	var s map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range s {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("summary keys %v", keys)
	}
}

// TestCheckersCatchCorruption tampers with correct answers and requires
// each checker to notice.
func TestCheckersCatchCorruption(t *testing.T) {
	w, err := newExact(tinyScale.exact, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, inst := range w.pool[:len(exactMix)] {
		a, err := w.answer(ctx, &inst, nil, 0, i)
		if err != nil {
			t.Fatal(err)
		}
		r := wexp.NewRNG(1)
		if err := checkExpansion(&inst, &a, r); err != nil {
			t.Fatalf("%s: a correct answer fails the check: %v", inst.class, err)
		}
		bad := a
		bad.Value += 0.5
		if checkExpansion(&inst, &bad, r) == nil {
			t.Errorf("%s: a wrong value passes", inst.class)
		}
		bad = a
		bad.Witness = append(slices.Clone(a.Witness), a.Witness[0])
		if checkExpansion(&inst, &bad, r) == nil {
			t.Errorf("%s: a witness with a repeated vertex passes", inst.class)
		}
		bad = a
		bad.Cert.Kind, bad.Cert.FailureProb = wexp.CertCertified, 1e-3
		if checkExpansion(&inst, &bad, r) == nil {
			t.Errorf("%s: a certificate with failure probability 1e-3 passes", inst.class)
		}
		bad = a
		bad.Cert.Kind = wexp.CertEstimate
		if checkExpansion(&inst, &bad, r) == nil {
			t.Errorf("%s: an estimate passes", inst.class)
		}
	}
	// On K8 with |S| ≤ 4, β is (8-4)/4, reached by any 4 vertices; a
	// singleton's (8-1)/1 evaluates correctly on its witness, but sampled
	// larger sets beat it.
	k8 := expInstance{class: "ordinary", g: wexp.Complete(8), maxK: 4}
	exact := wexp.Certificate{Kind: wexp.CertExact}
	if err := checkExpansion(&k8, &expAnswer{Class: "ordinary", Value: 1, Witness: []int{0, 1, 2, 3}, Cert: exact}, wexp.NewRNG(1)); err != nil {
		t.Errorf("the optimum fails the check: %v", err)
	}
	if checkExpansion(&k8, &expAnswer{Class: "ordinary", Value: 7, Witness: []int{0}, Cert: exact}, wexp.NewRNG(1)) == nil {
		t.Error("a value that sampled sets beat passes")
	}

	env := &serviceEnv{pool: []poolGraph{{digest: "abc"}}}
	hit := &request{class: "hit", want: []byte(`{"v":1}`)}
	if p := env.verify(hit, []byte(`{"v":1}`), "hit", &outcome{}); p != "" {
		t.Errorf("an identical hit fails: %s", p)
	}
	if env.verify(hit, []byte(`{"v":2}`), "hit", &outcome{}) == "" {
		t.Error("a tampered hit body passes")
	}
	dup := &request{class: "upload-dup", pool: 0}
	if env.verify(dup, []byte(`{"digest":"abc","existed":false}`), "", &outcome{}) == "" {
		t.Error("a duplicate upload answered existed: false passes")
	}
	if env.verify(&request{class: "miss-broadcast"}, []byte(`{}`), "hit", &outcome{}) == "" {
		t.Error("a miss served from the cache passes")
	}

	r := &report{}
	checkJam(r, []*mcCall{{model: "jam:1", res: &wexp.MonteCarloResult{Completed: 1}}})
	if r.correct() {
		t.Error("a completed jam:1 trial passes")
	}
	r = &report{}
	(&millionWorkload{ops: []millionOp{{digest: "a", n: 1}, {digest: "b", n: 1}}}).check(r)
	if r.correct() {
		t.Error("two ingests with different digests pass")
	}
}

func run(workload string, seed uint64, v float64) savedRun {
	return savedRun{Workload: workload, Seed: seed, summary: summary{
		Metrics: map[string]metricValue{"ops_per_s": {v, "op/s"}},
	}}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := slices.Clone(xs)
		for i := range out {
			out[i] += by
		}
		return out
	}
	noisy := []float64{70, 130, 100, 60, 140, 100, 80, 120, 90, 110}
	for _, tc := range []struct {
		name       string
		base, head []float64
		better     string
		want       string
	}{
		{"faster", base, shift(base, 10), "higher", "improved"},
		{"same", base, shift(base, 0.5), "higher", "no worse"},
		{"slower", base, shift(base, -20), "higher", "regressed"},
		{"slower but lower is better", base, shift(base, -20), "lower", "improved"},
		{"noisy", base, noisy, "higher", "unresolved"},
	} {
		if got := judge(tc.base, tc.head, tc.better, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}

	traced := func(seed uint64, sets float64) savedRun {
		r := run("exact", seed, 1)
		r.Trace = true
		r.Metrics["expansion.ordinary.sets"] = metricValue{sets, "count"}
		return r
	}
	if d := countDrift([]savedRun{traced(1, 5), traced(1, 5), traced(2, 7)}); len(d) != 0 {
		t.Errorf("equal counts reported as drift: %v", d)
	}
	if d := countDrift([]savedRun{traced(1, 5), traced(1, 6)}); len(d) != 1 {
		t.Errorf("drift %v, want one", d)
	}

	late := run("service", 1, 1)
	late.Extra = map[string]metricValue{"harness.gen_late_p99_s": {2e-3, "s"}}
	if l := lateRuns([]savedRun{late, run("service", 2, 1)}); len(l) != 1 {
		t.Errorf("late runs %v, want one", l)
	}

	var out strings.Builder
	code := printComparison(&out, []savedRun{run("exact", 1, 100), run("exact", 2, 100)},
		[]savedRun{run("exact", 1, 50), run("exact", 2, 50)},
		[]e2eDef{{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.1}})
	if code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("halved throughput: exit %d, output\n%s", code, out.String())
	}
}

func TestPacerIsOnTime(t *testing.T) {
	done := make(chan time.Duration)
	go func() {
		if err := lockPacerThread(); err != nil {
			t.Error(err)
			done <- 0
			return
		}
		at := time.Now().Add(20 * time.Millisecond)
		sleepUntil(at)
		done <- time.Since(at)
	}()
	if late := <-done; late < 0 {
		t.Errorf("woke %v early", -late)
	}
}
