package radio

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

func TestParseModel(t *testing.T) {
	valid := []struct {
		spec, name string
	}{
		{"", "unit-disk"},
		{"unit-disk", "unit-disk"},
		{"unitdisk", "unit-disk"},
		{"sinr", "sinr(alpha=1,beta=0.5,n0=0.1,power=1)"},
		{"sinr:2,1,0,4", "sinr(alpha=2,beta=1,n0=0,power=4)"},
		{"sinr:2", "sinr(alpha=2,beta=0.5,n0=0.1,power=1)"},
		{"fading", "fading(p=0.25)"},
		{"fading:0.5", "fading(p=0.5)"},
		{"fading:0.5,9", "fading(p=0.5,seed=9)"},
		{"multi", "multi(m=4)"},
		{"multi:7", "multi(m=7)"},
		{"multi-message:64", "multi(m=64)"},
		{"jam", "jam(k=1,policy=degree)"},
		{"jam:3", "jam(k=3,policy=degree)"},
		{"jam:2,frontier", "jam(k=2,policy=frontier)"},
	}
	for _, c := range valid {
		m, err := ParseModel(c.spec)
		if err != nil {
			t.Errorf("ParseModel(%q): %v", c.spec, err)
			continue
		}
		if m.Name() != c.name {
			t.Errorf("ParseModel(%q).Name() = %q, want %q", c.spec, m.Name(), c.name)
		}
	}
	invalid := []string{
		"nope", "unit-disk:1", "sinr:x", "sinr:1,2,3,4,5", "sinr:1,-1",
		"fading:1", "fading:-0.1", "fading:0.2,notanumber", "fading:0.2,1,2",
		"multi:0", "multi:65", "multi:1,2", "jam:-1", "jam:2,sideways", "jam:1,degree,x",
	}
	for _, spec := range invalid {
		if m, err := ParseModel(spec); err == nil {
			t.Errorf("ParseModel(%q) accepted as %q, want error", spec, m.Name())
		}
	}
}

// corpusGraphs is a small slice of the differential corpus used by the
// per-model agreement tests below.
func corpusGraphs(r *rng.RNG) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"cplus-12":    gen.CPlus(12),
		"torus-5x5":   gen.Torus(5, 5),
		"hypercube-5": gen.Hypercube(5),
		"star-16":     gen.Star(16),
		"er-70":       gen.ErdosRenyi(70, 0.08, r),
	}
}

// modelLockstep drives proto on a model-routed network and a reference
// network stepped by ref each round, comparing every observable.
func modelLockstep(t *testing.T, g *graph.Graph, m Model, ref func(n *Network, transmit []bool) int, maxRounds int) {
	t.Helper()
	mod, err := NewNetwork(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	mod.UseModel(m, 42)
	oracle, err := NewNetwork(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	proto := &Decay{R: r}
	transmit := make([]bool, g.N())
	for mod.Round < maxRounds && !mod.Done() {
		clear(transmit)
		proto.Transmitters(mod, transmit)
		nm := mod.Step(transmit)
		nr := ref(oracle, transmit)
		if nm != nr {
			t.Fatalf("round %d: newly informed %d (model) != %d (reference)", mod.Round, nm, nr)
		}
		compareNetworks(t, mod, oracle)
	}
}

// TestFadingZeroPMatchesOracle: with p = 0 no arc is ever erased, so the
// fading model must replay the unit-disk oracle exactly.
func TestFadingZeroPMatchesOracle(t *testing.T) {
	for name, g := range corpusGraphs(rng.New(1)) {
		t.Run(name, func(t *testing.T) {
			modelLockstep(t, g, &Fading{P: 0}, stepScalar, 200)
		})
	}
}

// TestMultiMessageSingleMatchesOracle: with m = 1 the only message
// originates at the source, so trajectories match unit-disk exactly.
func TestMultiMessageSingleMatchesOracle(t *testing.T) {
	for name, g := range corpusGraphs(rng.New(2)) {
		t.Run(name, func(t *testing.T) {
			modelLockstep(t, g, &MultiMessage{M: 1}, stepScalar, 200)
		})
	}
}

// TestJamZeroBudgetMatchesOracle: a jammer with no budget silences nobody.
func TestJamZeroBudgetMatchesOracle(t *testing.T) {
	for name, g := range corpusGraphs(rng.New(3)) {
		t.Run(name, func(t *testing.T) {
			modelLockstep(t, g, &Jam{Budget: 0}, stepScalar, 200)
		})
	}
}

// TestJamScalarVectorAgree is the jam model's own differential test:
// dense rows, the CSR scatter and the counting oracle must agree on every
// observable, for both policies.
func TestJamScalarVectorAgree(t *testing.T) {
	for _, policy := range []string{JamByDegree, JamByFrontier} {
		r := rng.New(11)
		for name, g := range corpusGraphs(r) {
			t.Run(policy+"/"+name, func(t *testing.T) {
				lockstep(t, g, 0, &Decay{R: rng.New(9)}, &Jam{Budget: 2, Policy: policy}, 120)
			})
		}
	}
}

// TestSINRReference checks the sender-centric production loop against an
// independent receiver-centric evaluation of the same threshold rule.
func TestSINRReference(t *testing.T) {
	m := &SINR{Alpha: 1, Beta: 0.5, N0: 0.1, Power: 1}
	sinrRef := func(n *Network, transmit []bool) int {
		g := n.G
		// Count transmissions like the model does.
		for v := 0; v < g.N(); v++ {
			if transmit[v] && n.Informed[v] {
				n.Transmissions++
			}
		}
		n.Round++
		newly := 0
		for w := 0; w < g.N(); w++ {
			if transmit[w] && n.Informed[w] {
				continue
			}
			sum, best := 0.0, 0.0
			for _, v := range g.Neighbors(w) {
				if !transmit[v] || !n.Informed[v] {
					continue
				}
				s := m.Power / math.Pow(1+float64(g.Degree(int(v))), m.Alpha)
				sum += s
				if s > best {
					best = s
				}
			}
			if best == 0 {
				continue
			}
			if best >= m.Beta*(m.N0+sum-best) {
				if n.inform(w) {
					newly++
				}
			} else {
				n.Collisions++
			}
		}
		return newly
	}
	for name, g := range corpusGraphs(rng.New(4)) {
		t.Run(name, func(t *testing.T) {
			modelLockstep(t, g, m.Fork(0), sinrRef, 200)
		})
	}
}

// TestSINRSingleTransmitterAlwaysDelivers: with one transmitter there is
// no interference, so every neighbor under the default parameters (degree
// ≤ 19) receives — the rule strictly extends unit-disk reception here.
func TestSINRSingleTransmitterAlwaysDelivers(t *testing.T) {
	g := gen.Star(10)
	n, _ := NewNetwork(g, 0) // center of the star
	n.UseModel(&SINR{Alpha: 1, Beta: 0.5, N0: 0.1, Power: 1}, 0)
	transmit := make([]bool, g.N())
	transmit[0] = true
	if newly := n.Step(transmit); newly != g.N()-1 {
		t.Fatalf("single transmitter informed %d of %d neighbors", newly, g.N()-1)
	}
	if !n.Done() {
		t.Fatal("star broadcast should complete in one round")
	}
}

// TestFadingDeterminism: identical (seed, salt) replays identically;
// different salts give different erasure patterns (on a graph large enough
// for a collision-free coincidence to be negligible).
func TestFadingDeterminism(t *testing.T) {
	g := gen.Hypercube(6)
	run := func(salt uint64) *Network {
		n, _ := NewNetwork(g, 0)
		n.UseModel(&Fading{P: 0.4, Seed: 17}, salt)
		r := rng.New(8)
		proto := &Decay{R: r}
		transmit := make([]bool, g.N())
		for n.Round < 300 && !n.Done() {
			for i := range transmit {
				transmit[i] = false
			}
			proto.Transmitters(n, transmit)
			n.Step(transmit)
		}
		return n
	}
	a, b, c := run(1), run(1), run(2)
	if a.Round != b.Round || a.Collisions != b.Collisions || a.Transmissions != b.Transmissions ||
		!reflect.DeepEqual(a.Informed, b.Informed) {
		t.Fatal("identical salts diverged")
	}
	if a.Round == c.Round && a.Collisions == c.Collisions && a.Transmissions == c.Transmissions {
		t.Fatal("different salts produced identical executions (suspicious)")
	}
}

// TestMultiMessageCompletion: completion requires all M messages
// everywhere, and Informed keeps meaning "holds ≥ 1 message".
func TestMultiMessageCompletion(t *testing.T) {
	g := gen.Cycle(12)
	n, _ := NewNetwork(g, 0)
	n.UseModel(&MultiMessage{M: 3}, 0)
	mm := n.model.(*MultiMessage)
	if n.InformedCount != 3 {
		t.Fatalf("3 distinct origins should start informed, got %d", n.InformedCount)
	}
	r := rng.New(6)
	proto := &Decay{R: r}
	transmit := make([]bool, g.N())
	for n.Round < 4000 && !n.Done() {
		if n.InformedCount == g.N() && !n.Done() {
			// The informative window: everyone holds something, not
			// everything — the unit-disk completion test would stop here.
			for j := 0; j < 3; j++ {
				held := 0
				for v := 0; v < g.N(); v++ {
					if mm.Holds(v, j) {
						held++
					}
				}
				if held == 0 {
					t.Fatalf("message %d vanished", j)
				}
			}
		}
		for i := range transmit {
			transmit[i] = false
		}
		proto.Transmitters(n, transmit)
		n.Step(transmit)
	}
	if !n.Done() {
		t.Fatalf("multi-message broadcast did not complete in %d rounds", n.Round)
	}
	for v := 0; v < g.N(); v++ {
		for j := 0; j < 3; j++ {
			if !mm.Holds(v, j) {
				t.Fatalf("done, but vertex %d misses message %d", v, j)
			}
		}
	}
}

// TestJamNeverCompletes: with budget ≥ 1 the last uninformed vertex is
// always within the jammer's budget, so broadcast can never complete.
func TestJamNeverCompletes(t *testing.T) {
	g := gen.Hypercube(5)
	res, err := MonteCarlo(g, 0, func(r *rng.RNG) Protocol { return &Decay{R: r} }, 8,
		Options{RunOpts: runopts.RunOpts{Seed: 21}, MaxRounds: 600, TraceRounds: -1,
			Model: &Jam{Budget: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("jammed broadcast completed %d trials", res.Completed)
	}
	for _, tr := range res.PerTrial {
		if tr.InformedCount >= g.N() {
			t.Fatalf("trial %d fully informed despite jammer", tr.Trial)
		}
		if tr.InformedCount < g.N()*3/4 {
			t.Fatalf("trial %d plateaued at %d/%d — jammer stronger than intended", tr.Trial, tr.InformedCount, g.N())
		}
	}
}

// TestModelMonteCarloWorkerInvariance is the satellite determinism suite:
// every model's full Monte-Carlo aggregate is bit-identical at workers
// 1, 2, and 8.
func TestModelMonteCarloWorkerInvariance(t *testing.T) {
	models := []Model{
		UnitDisk{},
		&SINR{Alpha: 1, Beta: 0.5, N0: 0.1, Power: 1},
		&Fading{P: 0.3},
		&MultiMessage{M: 4},
		&Jam{Budget: 1, Policy: JamByFrontier},
	}
	g := gen.Torus(6, 6)
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			var base *Result
			for _, workers := range []int{1, 2, 8} {
				res, err := MonteCarlo(g, 0, func(r *rng.RNG) Protocol { return &Decay{R: r} }, 24,
					Options{RunOpts: runopts.RunOpts{Workers: workers, Seed: 7}, MaxRounds: 500, Model: m})
				if err != nil {
					t.Fatal(err)
				}
				if res.Model != m.Name() {
					t.Fatalf("Result.Model = %q, want %q", res.Model, m.Name())
				}
				if base == nil {
					base = res
					continue
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("%s aggregate differs between 1 and %d workers", m.Name(), workers)
				}
			}
		})
	}
}

// TestUnitDiskModelMatchesLegacyMonteCarlo: naming the UnitDisk model
// explicitly changes nothing but the Model label — protocol RNG streams
// are untouched, so every aggregate byte matches a nil-model run.
func TestUnitDiskModelMatchesLegacyMonteCarlo(t *testing.T) {
	g := gen.CPlus(20)
	opt := Options{RunOpts: runopts.RunOpts{Seed: 13}, MaxRounds: 4000}
	legacy, err := MonteCarlo(g, 0, func(r *rng.RNG) Protocol { return &Decay{R: r} }, 16, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Model = UnitDisk{}
	routed, err := MonteCarlo(g, 0, func(r *rng.RNG) Protocol { return &Decay{R: r} }, 16, opt)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Model != "" || routed.Model != "unit-disk" {
		t.Fatalf("model labels: legacy %q, routed %q", legacy.Model, routed.Model)
	}
	routed.Model = ""
	if !reflect.DeepEqual(legacy, routed) {
		t.Fatal("UnitDisk-routed Monte-Carlo differs from the legacy path")
	}
}

// TestModelNamesCanonical: Fork preserves the name and ParseModel
// round-trips through it (the property wexpd cache keys rely on).
func TestModelNamesCanonical(t *testing.T) {
	for _, spec := range []string{"unit-disk", "sinr", "fading:0.5,3", "multi:8", "jam:2,frontier"} {
		m, err := ParseModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Fork(99).Name(); got != m.Name() {
			t.Fatalf("Fork changed name: %q -> %q", m.Name(), got)
		}
		family, _, _ := strings.Cut(spec, ":")
		if !strings.HasPrefix(m.Name(), family) {
			t.Fatalf("name %q does not echo family of %q", m.Name(), spec)
		}
	}
}
