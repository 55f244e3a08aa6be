package wexp

// The benchmark harness: one Benchmark per experiment of the registry
// (each iteration regenerates that experiment's table, in quick mode so a
// full -bench=. sweep stays tractable), plus micro-benchmarks of the hot
// paths that dominate the experiments (neighbor iteration, unique-cover
// computation, decay sampling, radio round stepping, Procedure Partition).
//
// Run with: go test -bench=. -benchmem

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"wexp/internal/badgraph"
	"wexp/internal/expansion"
	"wexp/internal/experiments"
	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/radio"
	"wexp/internal/rng"
	"wexp/internal/runopts"
	"wexp/internal/spokesman"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Seed: 20180220, Quick: true}
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s failed:\n%s", id, res.Text())
		}
	}
}

// One benchmark per experiment (tables/claims of the paper).

func BenchmarkE1SpectralUnique(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2GBadUnique(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3PositiveBeta1(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4PositiveBetaLT1(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5CoreGraph(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6GeneralizedCore(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7WorstCase(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8Spokesman(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9BroadcastLB(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10CPlusFlood(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11LowArboricity(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12Deterministic(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13Ablation(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14Broadcast(b *testing.B)      { benchExperiment(b, "E14") }

// --- Micro-benchmarks of the hot paths --------------------------------------

func BenchmarkNeighborIteration(b *testing.B) {
	g := gen.Torus(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.N(); v++ {
			for _, w := range g.Neighbors(v) {
				sum += int(w)
			}
		}
	}
	_ = sum
}

func BenchmarkUniqueCover(b *testing.B) {
	core, err := badgraph.NewCore(256)
	if err != nil {
		b.Fatal(err)
	}
	sub := make([]int, 0, 128)
	for u := 0; u < 256; u += 2 {
		sub = append(sub, u)
	}
	scratch := make([]int8, core.B.NN())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.B.UniqueCoverSet(sub, scratch)
	}
}

// Ablation benches: the cost knobs of spokesman election — decay trial
// budget, and the hill-climbing refinement pass.

func BenchmarkAblationDecayTrials1(b *testing.B)  { benchDecayTrials(b, 1) }
func BenchmarkAblationDecayTrials16(b *testing.B) { benchDecayTrials(b, 16) }
func BenchmarkAblationDecayTrials64(b *testing.B) { benchDecayTrials(b, 64) }

func benchDecayTrials(b *testing.B, trials int) {
	b.Helper()
	r := rng.New(9)
	bg := gen.RandomBipartite(64, 96, 0.08, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spokesman.Decay(bg, trials, r)
	}
}

func BenchmarkAblationImprovePass(b *testing.B) {
	r := rng.New(10)
	bg := gen.RandomBipartite(128, 192, 0.05, r)
	base := spokesman.GreedyUnique(bg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spokesman.Improve(bg, base, 4)
	}
}

func BenchmarkDecaySampler(b *testing.B) {
	r := rng.New(1)
	bg := gen.RandomBipartite(128, 256, 0.05, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spokesman.DecaySample(bg, 4, r)
	}
}

func BenchmarkPartitionProcedure(b *testing.B) {
	r := rng.New(2)
	bg := gen.RandomBipartite(256, 384, 0.03, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spokesman.Partition(bg, nil)
	}
}

func BenchmarkPartitionRecursive(b *testing.B) {
	r := rng.New(3)
	bg := gen.RandomBipartite(128, 192, 0.05, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spokesman.PartitionRecursive(bg)
	}
}

func BenchmarkGreedyUnique(b *testing.B) {
	r := rng.New(4)
	bg := gen.RandomBipartite(128, 192, 0.05, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spokesman.GreedyUnique(bg)
	}
}

func BenchmarkExhaustiveSpokesman20(b *testing.B) {
	r := rng.New(5)
	bg := gen.RandomBipartite(20, 30, 0.2, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spokesman.Exhaustive(bg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRadioRound(b *testing.B) {
	g := gen.Torus(64, 64)
	net, err := radio.NewNetwork(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	transmit := make([]bool, g.N())
	for v := 0; v < g.N(); v += 3 {
		transmit[v] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step(transmit)
	}
}

// --- Radio-engine perf record -------------------------------------------------

// radioBenchRecord is one (family, n, engine) data point of the perf
// record emitted as BENCH_radio.json: the cost of one flood-load receive
// round (every vertex informed and transmitting — the collision-heavy
// regime the word-parallel accumulate targets).
type radioBenchRecord struct {
	Family  string  `json:"family"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	Engine  string  `json:"engine"` // "vectorized" | "sparse" | "model:<spec>"
	NsPerOp float64 `json:"ns_per_op"`
}

// BenchmarkRadioEngine measures the receive step at n = 256/1024/4096 on
// Erdős–Rényi, hypercube, and C⁺ instances, the interference-model receive
// rules (unit-disk vs SINR vs fading) at n = 1024/4096, and the CSR
// scatter on a million-vertex instance, and writes BENCH_radio.json. The
// record is rewritten only when every configuration ran, so a filtered
// run cannot truncate it.
func BenchmarkRadioEngine(b *testing.B) {
	type cfg struct {
		family string
		engine string
		make   func() *graph.Graph
		model  string // receive-rule spec; empty steps the default unit-disk
	}
	var cfgs []cfg
	for _, n := range []int{256, 1024, 4096} {
		n := n
		d := 8
		for 1<<d < n {
			d++
		}
		dd := d
		cfgs = append(cfgs,
			cfg{family: "erdos-renyi", engine: "vectorized", make: func() *graph.Graph {
				return gen.ErdosRenyi(n, 0.1, rng.New(uint64(n)*77+5))
			}},
			cfg{family: "hypercube", engine: "vectorized", make: func() *graph.Graph { return gen.Hypercube(dd) }},
			cfg{family: "cplus", engine: "vectorized", make: func() *graph.Graph { return gen.CPlus(n - 1) }},
		)
	}
	// The interference-model grid: the same flood-load round under each
	// pluggable receive rule.
	for _, n := range []int{1024, 4096} {
		n := n
		for _, spec := range []string{"unit-disk", "sinr", "fading:0.25"} {
			cfgs = append(cfgs, cfg{family: "erdos-renyi", engine: "model:" + spec, model: spec, make: func() *graph.Graph {
				return gen.ErdosRenyi(n, 0.1, rng.New(uint64(n)*77+5))
			}})
		}
	}
	// The million-vertex row: the CSR scatter on a RandomSparse instance
	// far past the dense-row budget (dense bit rows at this n would need
	// ~n²/8 ≈ 125 GB).
	cfgs = append(cfgs, cfg{family: "random-sparse", engine: "sparse", make: func() *graph.Graph {
		return gen.RandomSparse(1_000_000, 8_000_000, rng.New(1_000_000*77+5))
	}})
	// Indexed by configuration and overwritten on every invocation: the
	// harness re-runs each sub-benchmark while calibrating b.N, and the
	// final (largest-b.N) invocation is the one worth recording.
	records := make([]radioBenchRecord, len(cfgs))
	ran := make([]bool, len(records))
	for ci, c := range cfgs {
		g := c.make()
		name := fmt.Sprintf("%s/n=%d/%s", c.family, g.N(), c.engine)
		if c.model != "" {
			name = fmt.Sprintf("%s/n=%d/model=%s", c.family, g.N(), c.model)
		}
		b.Run(name, func(b *testing.B) {
			net, err := radio.NewNetwork(g, 0)
			if err != nil {
				b.Fatal(err)
			}
			if c.model != "" {
				model, err := radio.ParseModel(c.model)
				if err != nil {
					b.Fatal(err)
				}
				net.UseModel(model, 1)
			}
			transmit := make([]bool, g.N())
			for v := range transmit {
				net.Informed[v] = true
				transmit[v] = true
			}
			net.InformedCount = g.N()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				net.Step(transmit)
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(b.N)
			records[ci] = radioBenchRecord{Family: c.family, N: g.N(), M: g.M(), Engine: c.engine, NsPerOp: ns}
			ran[ci] = true
		})
	}
	for _, ok := range ran {
		if !ok {
			return // filtered run: keep the existing record
		}
	}
	payload := struct {
		Schema     string             `json:"schema"`
		Go         string             `json:"go"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		Records    []radioBenchRecord `json:"records"`
	}{
		Schema:     "wexp-bench/radio-v1",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Records:    records,
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		b.Fatalf("marshal radio perf record: %v", err)
	}
	if err := os.WriteFile("BENCH_radio.json", append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_radio.json: %v", err)
	}
}

// BenchmarkRadioMonteCarlo measures the trial harness end to end (decay
// protocol on a 32×32 torus, 16 trials per op over the worker pool).
func BenchmarkRadioMonteCarlo(b *testing.B) {
	g := gen.Torus(32, 32)
	factory := func(r *rng.RNG) radio.Protocol { return &radio.Decay{R: r} }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := radio.MonteCarlo(g, 0, factory, 16,
			radio.Options{RunOpts: runopts.RunOpts{Seed: uint64(i)}, MaxRounds: 1 << 20, TraceRounds: -1})
		if err != nil || res.Completed != 16 {
			b.Fatalf("montecarlo: %v (completed %d)", err, res.Completed)
		}
	}
}

// --- Expansion-engine perf record --------------------------------------------

// expansionBenchRecord is one (solver, n) data point of the perf record
// emitted as BENCH_expansion.json, giving future PRs a trajectory to beat.
// AllocsPerOp rides along so cmd/benchgate catches allocation regressions,
// not just timing.
type expansionBenchRecord struct {
	Solver      string  `json:"solver"`
	N           int     `json:"n"`
	P           float64 `json:"p"` // Erdős–Rényi edge density of the instance
	Alpha       float64 `json:"alpha"`
	Workers     int     `json:"workers"` // 0 = GOMAXPROCS pool
	NsPerOp     float64 `json:"ns_per_op"`
	SetsPerOp   int     `json:"sets_per_op"`
	SetsPerSec  float64 `json:"sets_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	// PruneRate is pruned/(sets+pruned) and VisitedFraction is
	// visited/(sets+pruned), both computed in float64 (Pruned saturates
	// int64 on deep subtree cuts). Deterministic functions of the instance
	// — bit-identical at every worker count — so benchgate treats them as
	// identity fields: a drift in the search shape breaks record matching
	// instead of hiding inside a timing tolerance.
	PruneRate       float64 `json:"prune_rate"`
	VisitedFraction float64 `json:"visited_fraction"`

	// Randomized-tier rows only: the certificate's trial count and failure
	// probability. Both are deterministic functions of the instance and the
	// fixed bench seed (pre-split per-trial RNG streams, worker-invariant),
	// so benchgate keys on them too — a drift in the randomized schedule or
	// failure accounting breaks record matching like a search-shape drift.
	Trials      int     `json:"trials,omitempty"`
	FailureProb float64 `json:"failure_prob,omitempty"`
}

// BenchmarkExpansionEngine measures the exact branch-and-bound search on
// seeded random graphs and writes the aggregate record to
// BENCH_expansion.json: the historical n = 16..32 multi-worker rows, the
// n = 120 search frontier, and the randomized tier on the same instance.
// The record is rewritten only when every configuration ran (e.g. `go test
// -bench=ExpansionEngine`), so a filtered run cannot truncate it.
func BenchmarkExpansionEngine(b *testing.B) {
	type cfg struct {
		solver     string
		obj        expansion.Objective
		n          int
		p          float64
		alpha      float64
		workers    int
		randomized bool // run the randomized certified tier instead of the exact engine
	}
	cfgs := []cfg{
		{"ordinary", expansion.ObjOrdinary, 16, 0.3, 0.5, 0, false},
		{"ordinary", expansion.ObjOrdinary, 20, 0.3, 0.5, 0, false},
		{"ordinary", expansion.ObjOrdinary, 24, 0.3, 0.25, 0, false},
		{"ordinary", expansion.ObjOrdinary, 32, 0.3, 0.125, 0, false},
		{"unique", expansion.ObjUnique, 20, 0.3, 0.5, 0, false},
		{"wireless", expansion.ObjWireless, 16, 0.3, 0.25, 0, false},
		// The branch-and-bound frontier row: n = 120 with k ≤ 6 spans a
		// C(120,6) ≈ 5.4e9-set space that no full enumeration fits; only
		// subtree pruning makes it a benchmarkable op.
		{"ordinary-bnb-frontier", expansion.ObjOrdinary, 120, 0.08, 6.0 / 120.0, 0, false},
		// The randomized certified tier on the same frontier instance: the
		// per-op cost of a failure ≤ 1e-9 certificate where exact search is
		// the alternative, plus the trials/failure_prob identity columns.
		{"ordinary-randomized-frontier", expansion.ObjOrdinary, 120, 0.08, 6.0 / 120.0, 0, true},
	}
	// Indexed by config, overwritten on every invocation: the harness
	// re-runs each sub-benchmark while calibrating b.N, and the final
	// (largest-b.N) invocation is the one worth recording.
	records := make([]expansionBenchRecord, len(cfgs))
	ran := make([]bool, len(cfgs))
	for ci, c := range cfgs {
		b.Run(fmt.Sprintf("%s/n=%d", c.solver, c.n), func(b *testing.B) {
			g := gen.ErdosRenyi(c.n, c.p, rng.New(uint64(c.n)*1000+7))
			opt := expansion.Options{RunOpts: runopts.RunOpts{Workers: c.workers}, Alpha: c.alpha}
			solve := func() (expansion.Result, error) {
				if c.randomized {
					return expansion.Randomized(g, c.obj, expansion.RandOptions{
						RunOpts: runopts.RunOpts{Workers: c.workers, Seed: 1}, Alpha: c.alpha})
				}
				return expansion.Exact(g, c.obj, opt)
			}
			var sets int
			var pruned, visited int64
			var cert expansion.Certificate
			b.ReportAllocs()
			// Level the heap before timing: earlier benchmarks in this
			// process leave garbage whose collection would otherwise land
			// inside — and jitter — the measured region.
			runtime.GC()
			b.ResetTimer()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := solve()
				if err != nil {
					b.Fatal(err)
				}
				sets = res.Sets
				pruned, visited = res.Pruned, res.Visited
				cert = res.Cert
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			if elapsed <= 0 {
				elapsed = time.Nanosecond
			}
			setsPerSec := float64(sets) * float64(b.N) / elapsed.Seconds()
			b.ReportMetric(setsPerSec, "sets/s")
			space := float64(sets) + float64(pruned)
			records[ci] = expansionBenchRecord{
				Solver:      c.solver,
				N:           c.n,
				P:           c.p,
				Alpha:       c.alpha,
				Workers:     c.workers,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(b.N),
				SetsPerOp:   sets,
				SetsPerSec:  setsPerSec,
				AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N),

				PruneRate:       float64(pruned) / space,
				VisitedFraction: float64(visited) / space,
				Trials:          cert.Trials,
				FailureProb:     cert.FailureProb,
			}
			ran[ci] = true
		})
	}
	// Rewrite the record only when every configuration ran (a filtered
	// `-bench` run must not truncate it).
	for _, ok := range ran {
		if !ok {
			return
		}
	}
	writeExpansionBenchRecord(b, records)
}

func writeExpansionBenchRecord(b *testing.B, records []expansionBenchRecord) {
	b.Helper()
	payload := struct {
		Schema     string                 `json:"schema"`
		Go         string                 `json:"go"`
		GOMAXPROCS int                    `json:"gomaxprocs"`
		Records    []expansionBenchRecord `json:"records"`
	}{
		Schema:     "wexp-bench/expansion-v1",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Records:    records,
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		b.Fatalf("marshal perf record: %v", err)
	}
	if err := os.WriteFile("BENCH_expansion.json", append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_expansion.json: %v", err)
	}
}

func BenchmarkExactWireless12(b *testing.B) {
	r := rng.New(6)
	g := gen.ErdosRenyi(12, 0.35, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expansion.ExactWireless(g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLambda2PowerIteration(b *testing.B) {
	g := gen.Hypercube(10)
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expansion.Lambda2Regular(g, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := badgraph.NewCore(256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainBroadcastDecay(b *testing.B) {
	r := rng.New(8)
	ch, err := badgraph.NewChain(4, 16, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := radio.Run(ch.G, ch.Root, &radio.Decay{R: r}, 1_000_000)
		if err != nil || !res.Completed {
			b.Fatalf("broadcast failed: %v", err)
		}
	}
}
