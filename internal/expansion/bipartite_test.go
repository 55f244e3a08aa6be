package expansion

import (
	"math"
	"math/bits"
	"testing"

	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

func TestMinBipartiteExpansionSimple(t *testing.T) {
	// Two S-vertices sharing all 4 neighbors: singleton expansion 4,
	// pair expansion 2 → min = 2.
	bb := graph.NewBipartiteBuilder(2, 4)
	for v := 0; v < 4; v++ {
		bb.MustAddEdge(0, v)
		bb.MustAddEdge(1, v)
	}
	res, err := MinBipartiteExpansion(bb.Build())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Fatalf("min expansion = %g, want 2", res.Value)
	}
	if bits.OnesCount64(res.ArgSet) != 2 {
		t.Fatalf("witness %b should be the pair", res.ArgSet)
	}
}

func TestMinBipartiteExpansionMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		b := gen.RandomBipartite(8, 12, 0.3, r)
		res, err := MinBipartiteExpansion(b)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Inf(1)
		var sub []int
		for mask := 1; mask < 1<<8; mask++ {
			sub = sub[:0]
			for u := 0; u < 8; u++ {
				if mask&(1<<uint(u)) != 0 {
					sub = append(sub, u)
				}
			}
			cov := float64(b.CoverSet(sub, nil)) / float64(len(sub))
			if cov < want {
				want = cov
			}
		}
		if math.Abs(res.Value-want) > 1e-12 {
			t.Fatalf("trial %d: gray=%g naive=%g", trial, res.Value, want)
		}
	}
}

func TestMinBipartiteExpansionValidation(t *testing.T) {
	if _, err := MinBipartiteExpansion(graph.NewBipartiteBuilder(0, 3).Build()); err == nil {
		t.Fatal("empty S accepted")
	}
	// A 2^70 enumeration can never fit the default budget.
	big := gen.RandomBipartite(70, 4, 0.1, rng.New(2))
	if _, err := MinBipartiteExpansion(big); err == nil {
		t.Fatal("|S|=70 full enumeration accepted under default budget")
	}
	// An explicit tiny budget rejects even small instances...
	small := gen.RandomBipartite(8, 12, 0.3, rng.New(3))
	if _, err := MinBipartiteExpansionOpts(small, Options{RunOpts: runopts.RunOpts{Budget: 16}}); err == nil {
		t.Fatal("budget 16 accepted a 2^8 enumeration")
	}
	// ...while a MaxK cutoff makes the large instance affordable.
	res, err := MinBipartiteExpansionOpts(big, Options{MaxK: 2})
	if err != nil {
		t.Fatalf("|S|=70 with MaxK=2 rejected: %v", err)
	}
	if res.Value <= 0 || math.IsInf(res.Value, 1) {
		t.Fatalf("suspicious min expansion %g", res.Value)
	}
}

func TestMinBipartiteExpansionBigPathMatchesGray(t *testing.T) {
	// A budget of 2^|S| − 1 disqualifies the Gray-code walk and routes the
	// full-size query to the branch-and-bound search, which must reproduce
	// the Gray-code value. The search also pays for its seed pass and node
	// visits, so it fits that budget only where pruning saves more than
	// those cost: at |S| = 16 on these instances, not at |S| = 8.
	r := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		b := gen.RandomBipartite(16, 24, 0.3, r)
		gray, err := MinBipartiteExpansion(b)
		if err != nil {
			t.Fatal(err)
		}
		big, err := MinBipartiteExpansionOpts(b, Options{RunOpts: runopts.RunOpts{Budget: 1<<16 - 1}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gray.Value-big.Value) > 1e-12 || big.Visited == 0 {
			t.Fatalf("trial %d: gray=%g big=%g (visited %d)", trial, gray.Value, big.Value, big.Visited)
		}
		// A MaxK cutoff routes to the search too; the test oracle at the
		// same cutoff checks its witness.
		oracle15 := oracleBipartite(b, 15)
		bnb15, err := MinBipartiteExpansionOpts(b, Options{MaxK: 15})
		if err != nil {
			t.Fatal(err)
		}
		if oracle15.Value != bnb15.Value || oracle15.ArgSet != bnb15.ArgSet {
			t.Fatalf("trial %d: oracle (%g,%b) != bnb (%g,%b)",
				trial, oracle15.Value, oracle15.ArgSet, bnb15.Value, bnb15.ArgSet)
		}
	}
}

func TestOrdinaryProfileCycle(t *testing.T) {
	// On a cycle the worst set of size k is an arc with expansion 2/k.
	g := gen.Cycle(12)
	p, err := OrdinaryProfile(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 6; k++ {
		want := 2.0 / float64(k)
		if math.Abs(p.MinExpansion[k]-want) > 1e-12 {
			t.Fatalf("profile[%d] = %g, want %g", k, p.MinExpansion[k], want)
		}
	}
	if math.Abs(p.Beta()-2.0/6.0) > 1e-12 {
		t.Fatalf("Beta() = %g", p.Beta())
	}
}

func TestOrdinaryProfileAgreesWithExact(t *testing.T) {
	r := rng.New(3)
	g := gen.ErdosRenyi(12, 0.3, r)
	p, err := OrdinaryProfile(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactOrdinary(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Beta()-exact.Value) > 1e-12 {
		t.Fatalf("profile β=%g exact β=%g", p.Beta(), exact.Value)
	}
}

func TestOrdinaryProfileValidation(t *testing.T) {
	g := gen.Cycle(10)
	if _, err := OrdinaryProfile(g, 0); err == nil {
		t.Fatal("maxK=0 accepted")
	}
	if _, err := OrdinaryProfile(g, 11); err == nil {
		t.Fatal("maxK>n accepted")
	}
	// C(40,20) ≈ 1.4e11 sets cannot be enumerated within the default
	// budget — but the branch-and-bound search prunes its way through:
	// every per-size minimum of a cycle is a union of arcs, found early.
	if Feasible(40, 20, ObjOrdinary, 0) {
		t.Fatal("a C(40,20) enumeration reported feasible")
	}
	p, err := OrdinaryProfile(gen.Cycle(40), 20)
	if err != nil {
		t.Fatalf("branch-and-bound profile rejected: %v", err)
	}
	if got := p.MinExpansion[20]; math.Abs(got-2.0/20) > 1e-12 {
		t.Fatalf("β-profile(C40)[20] = %g, want 2/20", got)
	}
	// A small maxK fits even a full enumeration.
	if _, err := OrdinaryProfile(gen.Cycle(40), 3); err != nil {
		t.Fatal("n=40 maxK=3 should fit the default budget")
	}
}

func TestEdgeExpansionKnown(t *testing.T) {
	// K_n: h = min over k ≤ n/2 of k(n−k)/k = n − n/2 = ⌈n/2⌉.
	res, err := EdgeExpansion(gen.Complete(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 {
		t.Fatalf("h(K8) = %g, want 4", res.Value)
	}
	// Cycle: an arc of maximal size n/2 has cut 2 → h = 2/(n/2).
	res, err = EdgeExpansion(gen.Cycle(12))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-2.0/6) > 1e-12 {
		t.Fatalf("h(C12) = %g", res.Value)
	}
	// The edge wrapper reports the same answer and search counters as
	// the engine it wraps.
	g := gen.ErdosRenyi(20, 0.3, rng.New(3))
	edge, err := EdgeExpansionOpts(g, Options{RunOpts: runopts.RunOpts{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Exact(g, ObjEdge, Options{RunOpts: runopts.RunOpts{Workers: 2}, MaxK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if edge.Value != ex.Value || edge.ArgSet != ex.ArgSet || edge.Sets != ex.Sets ||
		edge.Pruned != ex.Pruned || edge.Visited != ex.Visited || edge.SubtreesPruned != ex.SubtreesPruned {
		t.Fatalf("EdgeExpansionOpts %+v != Exact (%g,%b,%d,%d,%d,%d)", edge,
			ex.Value, ex.ArgSet, ex.Sets, ex.Pruned, ex.Visited, ex.SubtreesPruned)
	}
	if edge.Visited == 0 {
		t.Fatal("edge expansion reported no search")
	}
}

func TestCheegerInequalityHolds(t *testing.T) {
	r := rng.New(4)
	for _, mk := range []func() *graph.Graph{
		func() *graph.Graph { return gen.Complete(10) },
		func() *graph.Graph { return gen.Cycle(14) },
		func() *graph.Graph { return gen.Hypercube(4) },
		func() *graph.Graph { g, _ := gen.RandomRegular(16, 4, r); return g },
	} {
		g := mk()
		_, d := g.IsRegular()
		spec, err := Lambda2Regular(g, r)
		if err != nil {
			t.Fatal(err)
		}
		h, err := EdgeExpansion(g)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := CheegerBounds(d, spec.Lambda)
		if h.Value < lo-1e-6 || h.Value > hi+1e-6 {
			t.Fatalf("%v: h=%g outside Cheeger bracket [%g, %g] (λ2=%g)",
				g, h.Value, lo, hi, spec.Lambda)
		}
	}
}

func TestEdgeExpansionValidation(t *testing.T) {
	if _, err := EdgeExpansion(gen.Complete(1)); err == nil {
		t.Fatal("n=1 accepted")
	}
	// n=24 fits the default budget now (Σ C(24,k≤12) ≈ 2^23); n=80 with
	// k ≤ 40 does not.
	res, err := EdgeExpansion(gen.Cycle(24))
	if err != nil {
		t.Fatalf("n=24 rejected: %v", err)
	}
	if math.Abs(res.Value-2.0/12) > 1e-12 {
		t.Fatalf("h(C24) = %g, want %g", res.Value, 2.0/12)
	}
	// n=80 with k ≤ 40 overwhelms a full enumeration but not the
	// branch-and-bound search: h(C80) = 2/40.
	if Feasible(80, 40, ObjEdge, 0) {
		t.Fatal("a Σ C(80,k≤40) enumeration reported feasible")
	}
	res, err = EdgeExpansion(gen.Cycle(80))
	if err != nil {
		t.Fatalf("branch-and-bound n=80 rejected: %v", err)
	}
	if math.Abs(res.Value-2.0/40) > 1e-12 {
		t.Fatalf("h(C80) = %g, want %g", res.Value, 2.0/40)
	}
}

func TestMinBipartiteExpansionOnCore(t *testing.T) {
	// Direct exact verification of Lemma 4.4(4) through the new solver:
	// core graph with s=16 has min expansion ≥ log 2s = 5. (Also exercised
	// in E5; here via the Gray-code path.)
	bb := graph.NewBipartiteBuilder(2, 2)
	bb.MustAddEdge(0, 0)
	bb.MustAddEdge(1, 1)
	res, err := MinBipartiteExpansion(bb.Build())
	if err != nil || res.Value != 1 {
		t.Fatalf("perfect matching expansion = %g", res.Value)
	}
}
