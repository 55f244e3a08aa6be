package radio

import (
	"fmt"
	"reflect"
	"testing"

	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

// corpusFamilies and corpusProtocols span the differential corpus.
var corpusFamilies = []struct {
	name string
	make func(r *rng.RNG) *graph.Graph
}{
	{"path-17", func(*rng.RNG) *graph.Graph { return gen.Path(17) }},
	{"cycle-24", func(*rng.RNG) *graph.Graph { return gen.Cycle(24) }},
	{"cplus-12", func(*rng.RNG) *graph.Graph { return gen.CPlus(12) }},
	{"torus-5x5", func(*rng.RNG) *graph.Graph { return gen.Torus(5, 5) }},
	{"hypercube-5", func(*rng.RNG) *graph.Graph { return gen.Hypercube(5) }},
	{"star-16", func(*rng.RNG) *graph.Graph { return gen.Star(16) }},
	{"er-30", func(r *rng.RNG) *graph.Graph { return gen.ErdosRenyi(30, 0.15, r) }},
	// n = 70 crosses the one-word boundary of the bitset rows.
	{"er-70", func(r *rng.RNG) *graph.Graph { return gen.ErdosRenyi(70, 0.08, r) }},
}

var corpusProtocols = []struct {
	name string
	make func(n int, r *rng.RNG) Protocol
}{
	{"flood", func(int, *rng.RNG) Protocol { return Flood{} }},
	{"round-robin", func(int, *rng.RNG) Protocol { return RoundRobin{} }},
	{"decay", func(_ int, r *rng.RNG) Protocol { return &Decay{R: r} }},
	{"prob-flood", func(_ int, r *rng.RNG) Protocol { return &ProbFlood{P: 0.3, R: r} }},
	{"spokesman", func(_ int, r *rng.RNG) Protocol { return &Spokesman{R: r, Trials: 2} }},
	{"random-schedule", func(n int, r *rng.RNG) Protocol {
		sched, err := NewRandomSchedule(n, 16, 0.2, r)
		if err != nil {
			panic(err)
		}
		return sched
	}},
}

// forCorpus runs one subtest per family × protocol × seed (240 cases) and
// returns the case count.
func forCorpus(t *testing.T, run func(t *testing.T, g *graph.Graph, proto Protocol)) int {
	cases := 0
	for _, fam := range corpusFamilies {
		for _, pr := range corpusProtocols {
			for seed := uint64(1); seed <= 5; seed++ {
				cases++
				t.Run(fmt.Sprintf("%s/%s/seed-%d", fam.name, pr.name, seed), func(t *testing.T) {
					r := rng.New(seed)
					g := fam.make(r)
					run(t, g, pr.make(g.N(), r))
				})
			}
		}
	}
	return cases
}

// TestStepMatchesScalarCorpus is the differential corpus: every graph
// family × protocol × seed combination runs unit-disk on dense rows, on
// the CSR scatter and through the counting oracle in lockstep (240 cases).
func TestStepMatchesScalarCorpus(t *testing.T) {
	cases := forCorpus(t, func(t *testing.T, g *graph.Graph, proto Protocol) {
		lockstep(t, g, 0, proto, UnitDisk{}, 80)
	})
	if cases < 200 {
		t.Fatalf("differential corpus has %d cases, want ≥ 200", cases)
	}
}

// TestStepMatchesScalarPreinformed covers states a protocol run never
// reaches from a single source: arbitrary informed sets and transmit
// flags on uninformed vertices, under unit-disk.
func TestStepMatchesScalarPreinformed(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		preinformedLockstep(t, r, gen.ErdosRenyi(40, 0.12, r), UnitDisk{}, 10)
	}
}

// preinformedLockstep informs a random ~30% of g on the three networks of
// lockstepNets, then steps them through `rounds` rounds of random transmit
// flags (uninformed vertices included), comparing every observable.
func preinformedLockstep(t *testing.T, r *rng.RNG, g *graph.Graph, m Model, rounds int) {
	t.Helper()
	ref := oracleFor(m)
	dense, csr, oracle := lockstepNets(t, g, 0, m)
	for v := 1; v < g.N(); v++ {
		if r.Bernoulli(0.3) {
			dense.inform(v)
			csr.inform(v)
			oracle.inform(v)
		}
	}
	transmit := make([]bool, g.N())
	for round := 0; round < rounds; round++ {
		for v := range transmit {
			transmit[v] = r.Bernoulli(0.4) // flags on uninformed vertices too
		}
		nd, nc, no := dense.Step(transmit), csr.Step(transmit), ref(oracle, transmit)
		if nd != no || nc != no {
			t.Fatalf("%s round %d: newly dense=%d csr=%d oracle=%d", m.Name(), oracle.Round, nd, nc, no)
		}
		compareNetworks(t, dense, oracle)
		compareNetworks(t, csr, oracle)
	}
}

// TestMonteCarloWorkerInvariance checks the determinism contract: the
// full Monte-Carlo aggregate is identical at every worker-pool width.
func TestMonteCarloWorkerInvariance(t *testing.T) {
	configs := []struct {
		name    string
		g       *graph.Graph
		factory Factory
	}{
		{"cplus-24/decay", gen.CPlus(24), func(r *rng.RNG) Protocol { return &Decay{R: r} }},
		{"torus-6x6/prob-flood", gen.Torus(6, 6), func(r *rng.RNG) Protocol { return &ProbFlood{P: 0.4, R: r} }},
		{"hypercube-5/spokesman", gen.Hypercube(5), func(r *rng.RNG) Protocol { return &Spokesman{R: r, Trials: 2} }},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			var base *Result
			for _, workers := range []int{1, 2, 8} {
				res, err := MonteCarlo(c.g, 0, c.factory, 24,
					Options{RunOpts: runopts.RunOpts{Workers: workers, Seed: 7}, MaxRounds: 4000})
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = res
					continue
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("MonteCarlo result differs between 1 and %d workers:\n%+v\nvs\n%+v",
						workers, base, res)
				}
			}
			if base.Completed == 0 {
				t.Fatal("no trial completed; invariance check vacuous")
			}
		})
	}
}

// TestMonteCarloAggregates sanity-checks the aggregate fields against the
// per-trial records.
func TestMonteCarloAggregates(t *testing.T) {
	g := gen.CPlus(16)
	res, err := MonteCarlo(g, 0, func(r *rng.RNG) Protocol { return &Decay{R: r} }, 32,
		Options{RunOpts: runopts.RunOpts{Seed: 3}, MaxRounds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "decay-bgi" {
		t.Fatalf("protocol = %q", res.Protocol)
	}
	if len(res.PerTrial) != 32 || res.Trials != 32 {
		t.Fatalf("per-trial records: %d", len(res.PerTrial))
	}
	var coll, tx int64
	completed := 0
	for i, tr := range res.PerTrial {
		if tr.Trial != i {
			t.Fatalf("trial order broken at %d", i)
		}
		coll += int64(tr.Collisions)
		tx += int64(tr.Transmissions)
		if tr.Completed {
			completed++
			if tr.InformedCount != g.N() {
				t.Fatalf("completed trial %d informed %d/%d", i, tr.InformedCount, g.N())
			}
		}
	}
	if res.TotalCollisions != coll || res.TotalTransmissions != tx {
		t.Fatal("totals disagree with per-trial sums")
	}
	if res.Completed != completed || completed == 0 {
		t.Fatalf("completed = %d, counted %d", res.Completed, completed)
	}
	if res.Rounds.N != 32 {
		t.Fatalf("rounds summary over %d trials", res.Rounds.N)
	}
	if res.CompletionHist == nil || res.CompletionHist.Total() != completed {
		t.Fatal("completion histogram missing or inconsistent")
	}
	if len(res.InformedByRound) == 0 {
		t.Fatal("no per-round summaries")
	}
	first := res.InformedByRound[0]
	if first.Mean != 1 || first.Min != 1 || first.Max != 1 {
		t.Fatalf("round 0 should have exactly the source informed: %+v", first)
	}
	last := res.InformedByRound[len(res.InformedByRound)-1]
	if last.Max > float64(g.N()) || last.Mean < first.Mean {
		t.Fatalf("per-round summary implausible: %+v", last)
	}
	// Monotone in every quantile: informed counts never decrease.
	for i := 1; i < len(res.InformedByRound); i++ {
		if res.InformedByRound[i].Mean+1e-9 < res.InformedByRound[i-1].Mean {
			t.Fatalf("mean informed decreased at round %d", i)
		}
	}
	// Error paths.
	if _, err := MonteCarlo(g, 0, nil, 0, Options{}); err == nil {
		t.Fatal("trials=0 accepted")
	}
	if _, err := MonteCarlo(g, -1, nil, 1, Options{}); err == nil {
		t.Fatal("bad source accepted")
	}
}
