package radio

import (
	"reflect"
	"runtime"
	"testing"

	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

// exactlyOneModels are the models that commit the engine's accumulate
// pass, each with a counting oracle: jam under both policies and
// multi-message (unit-disk has the corpus of diff_test.go).
func exactlyOneModels() []Model {
	return []Model{
		&Jam{Budget: 1, Policy: JamByDegree},
		&Jam{Budget: 2, Policy: JamByFrontier},
		&MultiMessage{M: 3},
	}
}

// TestSparseStepMatchesScalarCorpus is the model leg of the differential
// corpus: every family × protocol × seed runs jam (both policies) and
// multi-message on dense rows, on the CSR scatter and through their
// counting oracles in lockstep.
func TestSparseStepMatchesScalarCorpus(t *testing.T) {
	forCorpus(t, func(t *testing.T, g *graph.Graph, proto Protocol) {
		for _, m := range exactlyOneModels() {
			lockstep(t, g, 0, proto, m, 80)
		}
	})
}

// TestSparseStepPreinformed covers states a protocol run never reaches
// from a single source — arbitrary informed sets and transmit flags on
// uninformed vertices — under the models of exactlyOneModels.
func TestSparseStepPreinformed(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 60; trial++ {
		g := gen.ErdosRenyi(48, 0.12, r)
		for _, m := range exactlyOneModels() {
			preinformedLockstep(t, r, g, m, 3)
		}
	}
}

// TestSparseModelsMatchDense runs every receive-rule model under MonteCarlo
// twice — the default dense rows vs the CSR scatter forced — and requires
// bit-identical results. Models draw all randomness from pre-split streams
// keyed by seed and trial index, so the strategy must be invisible.
func TestSparseModelsMatchDense(t *testing.T) {
	r := rng.New(7)
	g := gen.ErdosRenyi(64, 0.15, r)
	if BuildAdjRows(g).rows == nil {
		t.Fatal("the default strategy must build rows here, or both runs scatter")
	}
	models := []Model{
		nil, // Options.Model unset: unit-disk, unlabelled
		UnitDisk{},
		&SINR{},
		&Fading{P: 0.7},
		&MultiMessage{M: 2},
		&Jam{Budget: 2},
		&Jam{Budget: 1, Policy: JamByFrontier},
	}
	for _, m := range models {
		name := "legacy"
		if m != nil {
			name = m.Name()
		}
		t.Run(name, func(t *testing.T) {
			factory := func(r *rng.RNG) Protocol { return &Decay{R: r} }
			base := Options{
				RunOpts:   runopts.RunOpts{Seed: 11, Workers: 1},
				MaxRounds: 120,
				Model:     m,
			}
			dense, err := MonteCarlo(g, 0, factory, 12, base)
			if err != nil {
				t.Fatal(err)
			}
			useCSR(t)
			sparse, err := MonteCarlo(g, 0, factory, 12, base)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dense, sparse) {
				t.Fatalf("model %s: sparse strategy diverged from dense\ndense:  %+v\nsparse: %+v",
					name, dense, sparse)
			}
		})
	}
}

// TestMonteCarloSparseWorkerInvariance pins the determinism contract on
// the CSR scatter: identical results at workers 1, 2, and 8.
func TestMonteCarloSparseWorkerInvariance(t *testing.T) {
	useCSR(t)
	r := rng.New(3)
	g := gen.ErdosRenyi(96, 0.1, r)
	factory := func(r *rng.RNG) Protocol { return &Decay{R: r} }
	for _, m := range []Model{&Fading{P: 0.8}, &Jam{Budget: 1}} {
		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			res, err := MonteCarlo(g, 0, factory, 24, Options{
				RunOpts:   runopts.RunOpts{Seed: 5, Workers: workers},
				MaxRounds: 200,
				Model:     m,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(ref, res) {
				t.Fatalf("%s: workers=%d diverged from workers=1", m.Name(), workers)
			}
		}
	}
}

// TestAdjRowsStrategySelection pins the strategy decision: rows iff they
// fit denseRowBudget and at least half of the arcs lie in rows of degree
// ≥ ⌈n/64⌉, decided before any row is allocated.
func TestAdjRowsStrategySelection(t *testing.T) {
	// n = 128 has 2-word rows: a 10-vertex path puts 16 arcs in rows of
	// degree 2 (dense) and 2 in rows of degree 1; each extra matching edge
	// adds 2 arcs in degree-1 rows. With 7 matching edges exactly half of
	// the 2m = 32 arcs are dense; the 8th tips the balance.
	pathPlusMatching := func(k int) *graph.Graph {
		b := graph.NewBuilder(128)
		for v := 0; v+1 < 10; v++ {
			b.MustAddEdge(v, v+1)
		}
		for i := 0; i < k; i++ {
			b.MustAddEdge(10+2*i, 11+2*i)
		}
		return b.Build()
	}
	if rows := BuildAdjRows(pathPlusMatching(7)); rows.rows == nil {
		t.Fatal("half the arcs in dense rows must build rows")
	}
	if rows := BuildAdjRows(pathPlusMatching(8)); rows.rows != nil {
		t.Fatal("under half the arcs in dense rows must build none")
	}
	// Past the budget no rows are built whatever the arc mass (an
	// edgeless graph passes the arc-mass rule trivially), and deciding
	// costs nothing quadratic.
	big := hugeEmptyGraph(1 << 20)
	if rows := BuildAdjRows(big); rows.rows != nil {
		t.Fatal("n=2^20 must build no rows")
	}
	// The test override keeps rows off on a graph that would get them.
	useCSR(t)
	if rows := BuildAdjRows(pathPlusMatching(7)); rows.rows != nil {
		t.Fatal("forceCSR must build no rows")
	}
}

// hugeEmptyGraph builds an edgeless n-vertex graph (CSR is just the offset
// array, so this is cheap even at n = 2^20).
func hugeEmptyGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	return b.Build()
}

// TestMonteCarloArenaReuse bounds steady-state allocation: with pooled
// trial arenas, 200 single-worker trials on an 8k-vertex graph must not
// allocate fresh per-trial networks (≈100 KiB each) every trial.
func TestMonteCarloArenaReuse(t *testing.T) {
	r := rng.New(21)
	g := gen.ErdosRenyi(8192, 0.0008, r)
	factory := func(r *rng.RNG) Protocol { return &Decay{R: r} }
	opts := Options{
		RunOpts:     runopts.RunOpts{Seed: 9, Workers: 1},
		MaxRounds:   4,
		TraceRounds: -1,
	}
	// Warm up once so lazily built scratch does not count.
	if _, err := MonteCarlo(g, 0, factory, 2, opts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	trials := 200
	if _, err := MonteCarlo(g, 0, factory, trials, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perTrialBudget := uint64(8 << 10) // protocol + result records, not arenas
	fixed := uint64(4 << 20)          // rows, pre-split RNGs, aggregation
	total := after.TotalAlloc - before.TotalAlloc
	if total > fixed+uint64(trials)*perTrialBudget {
		t.Fatalf("MonteCarlo allocated %d bytes over %d trials (%.0f B/trial); arenas are not being reused",
			total, trials, float64(total)/float64(trials))
	}
}
