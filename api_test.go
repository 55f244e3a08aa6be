package wexp

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: build a graph, measure all three
	// expansions, confirm the ordering of Observation 2.1.
	g := CPlus(8)
	beta, betaW, betaU, err := ExpansionOrdering(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !(beta >= betaW && betaW >= betaU) {
		t.Fatalf("ordering violated: %g %g %g", beta, betaW, betaU)
	}
	if betaU != 0 {
		t.Fatalf("C⁺ unique expansion = %g, want 0", betaU)
	}
	if betaW <= 0 {
		t.Fatalf("C⁺ wireless expansion = %g, want > 0", betaW)
	}
}

func TestPublicGenerators(t *testing.T) {
	r := NewRNG(1)
	if Complete(5).M() != 10 {
		t.Fatal("Complete")
	}
	if Cycle(5).N() != 5 {
		t.Fatal("Cycle")
	}
	if Hypercube(4).N() != 16 {
		t.Fatal("Hypercube")
	}
	if Grid(2, 3).N() != 6 {
		t.Fatal("Grid")
	}
	if Torus(3, 3).N() != 9 {
		t.Fatal("Torus")
	}
	if CompleteBinaryTree(3).N() != 7 {
		t.Fatal("Tree")
	}
	if Margulis(4).N() != 16 {
		t.Fatal("Margulis")
	}
	if g, err := RandomRegular(10, 3, r); err != nil || g.N() != 10 {
		t.Fatal("RandomRegular")
	}
	if ErdosRenyi(10, 0.5, r).N() != 10 {
		t.Fatal("ErdosRenyi")
	}
	if RandomBipartite(4, 5, 0.5, r).NS() != 4 {
		t.Fatal("RandomBipartite")
	}
	if b, err := RandomBipartiteRegular(4, 6, 2, r); err != nil || b.NS() != 4 {
		t.Fatal("RandomBipartiteRegular")
	}
}

func TestPublicBuilders(t *testing.T) {
	b := NewGraphBuilder(3)
	b.MustAddEdge(0, 1)
	if b.Build().M() != 1 {
		t.Fatal("GraphBuilder")
	}
	bb := NewBipartiteBuilder(2, 2)
	bb.MustAddEdge(0, 0)
	if bb.Build().M() != 1 {
		t.Fatal("BipartiteBuilder")
	}
}

func TestWirelessCertificateMapsVertices(t *testing.T) {
	g := CPlus(6)
	r := NewRNG(2)
	S := []int{0, 1, 2} // s0, x, y — the motivating example
	sel, verts := WirelessCertificate(g, S, 8, r)
	if sel.Unique <= 0 {
		t.Fatalf("certificate unique = %d", sel.Unique)
	}
	if len(verts) != len(sel.Subset) {
		t.Fatal("vertex mapping length mismatch")
	}
	for _, v := range verts {
		if v != 0 && v != 1 && v != 2 {
			t.Fatalf("certificate vertex %d not in S", v)
		}
	}
}

func TestPublicSpokesmanPortfolio(t *testing.T) {
	r := NewRNG(3)
	b := RandomBipartite(10, 14, 0.25, r)
	opt, err := SpokesmanExhaustive(b)
	if err != nil {
		t.Fatal(err)
	}
	for name, sel := range map[string]Selection{
		"decay":     SpokesmanDecay(b, 8, r),
		"greedy":    SpokesmanGreedy(b),
		"partition": SpokesmanPartition(b),
		"recursive": SpokesmanRecursive(b),
		"best":      SpokesmanBest(b, 8, r),
	} {
		if sel.Unique > opt.Unique {
			t.Fatalf("%s beat the optimum", name)
		}
		if sel.Unique <= 0 {
			t.Fatalf("%s returned nothing", name)
		}
	}
}

func TestPublicConstructions(t *testing.T) {
	if b, err := CoreGraph(8); err != nil || b.NS() != 8 || b.NN() != 32 {
		t.Fatal("CoreGraph")
	}
	if _, err := CoreGraph(3); err == nil {
		t.Fatal("CoreGraph should reject non-powers of two")
	}
	if b, err := GBad(8, 6, 4); err != nil || b.NS() != 8 {
		t.Fatal("GBad")
	}
	b, achieved, err := GeneralizedCore(64, 4)
	if err != nil || b == nil || achieved <= 0 {
		t.Fatal("GeneralizedCore")
	}
	r := NewRNG(4)
	g, witness, err := WorstCaseExpander(Complete(128), 1.0, 0.3, r)
	if err != nil || g.N() <= 128 || len(witness) == 0 {
		t.Fatalf("WorstCaseExpander: %v", err)
	}
	chain, root, err := BroadcastChain(3, 8, r)
	if err != nil || root != 0 || !chain.Connected() {
		t.Fatal("BroadcastChain")
	}
}

func TestPublicBroadcast(t *testing.T) {
	g := CPlus(10)
	r := NewRNG(5)
	flood, err := Broadcast(g, 0, FloodProtocol(), 50)
	if err != nil || flood.Completed {
		t.Fatal("flood should deadlock on C⁺")
	}
	spoke, err := Broadcast(g, 0, SpokesmanProtocol(r, 4), 100)
	if err != nil || !spoke.Completed {
		t.Fatal("spokesman should complete")
	}
	decay, err := Broadcast(g, 0, DecayProtocol(r), 10000)
	if err != nil || !decay.Completed {
		t.Fatal("decay should complete")
	}
	rr, err := Broadcast(g, 0, RoundRobinProtocol(), 10000)
	if err != nil || !rr.Completed || rr.Collisions != 0 {
		t.Fatal("round robin should complete without collisions")
	}
}

func TestPublicBounds(t *testing.T) {
	if Theorem11Bound(64, 4) <= 0 {
		t.Fatal("Theorem11Bound")
	}
	if UniqueLowerBound(6, 4) != 2 {
		t.Fatal("UniqueLowerBound")
	}
	if BroadcastLowerBound(8, 128) != 32 {
		t.Fatal("BroadcastLowerBound")
	}
}

func TestPublicLambda2(t *testing.T) {
	l, err := Lambda2(Complete(8), NewRNG(6))
	if err != nil || math.Abs(l-(-1)) > 1e-6 {
		t.Fatalf("λ2(K8) = %g, %v", l, err)
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 16 || ids[0] != "E1" {
		t.Fatalf("ExperimentIDs = %v", ids)
	}
	res, err := RunExperiment("E2", ExperimentConfig{Seed: 1, Quick: true})
	if err != nil || !res.Pass {
		t.Fatalf("E2: %v", err)
	}
	if _, err := RunExperiment("E99", ExperimentConfig{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPublicRunExperimentsEngine(t *testing.T) {
	out := t.TempDir()
	rep, err := RunExperimentsWith(context.Background(), []string{"E2", "E5"},
		ExperimentConfig{Seed: 1, Quick: true},
		ExperimentOptions{RunOpts: RunOpts{Workers: 2}, OutDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 || len(rep.Artifacts) != 2 {
		t.Fatalf("report: failures=%d artifacts=%d", rep.Failures, len(rep.Artifacts))
	}
	if len(rep.Manifest.Experiments) != 2 || rep.Manifest.Experiments[0].SHA256 == "" {
		t.Fatalf("manifest incomplete: %+v", rep.Manifest)
	}
	for _, name := range []string{"E2.json", "E5.json", "MANIFEST.json"} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Fatalf("artifact %s not written: %v", name, err)
		}
	}
	if _, err := RunExperimentsWith(context.Background(), []string{"E99"}, ExperimentConfig{}, ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted by RunExperimentsWith")
	}
}

func TestExactExpansionValuesOnKnownGraphs(t *testing.T) {
	// K8 with α = 1/2: β = 1.
	res, err := OrdinaryExpansion(Complete(8), 0.5)
	if err != nil || res.Value != 1 {
		t.Fatalf("β(K8) = %g", res.Value)
	}
	// Unique expansion of K8 at α = 1/2: sets of size ≥ 2 have no unique
	// neighbors... every outside vertex sees all of S. βu = 0.
	ru, err := UniqueExpansion(Complete(8), 0.5)
	if err != nil || ru.Value != 0 {
		t.Fatalf("βu(K8) = %g", ru.Value)
	}
	// Wireless: pick a singleton subset of any S — it uniquely covers all
	// outside vertices, so βw = max ... min over S of (n−|S|)/|S| at
	// |S| = 4: (8−4)/4 = 1.
	rw, err := WirelessExpansion(Complete(8), 0.5)
	if err != nil || rw.Value != 1 {
		t.Fatalf("βw(K8) = %g", rw.Value)
	}
}
