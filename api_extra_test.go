package wexp

import (
	"bytes"
	"context"
	"math"
	"testing"
)

func TestBroadcastTraced(t *testing.T) {
	g := CPlus(8)
	r := NewRNG(1)
	res, tr, err := BroadcastTraced(g, 0, DecayProtocol(r), 100000)
	if err != nil || !res.Completed {
		t.Fatalf("traced decay failed: %v %+v", err, res)
	}
	if len(tr.Informed) != res.Rounds+1 {
		t.Fatal("trace length mismatch")
	}
	if tr.RoundsToReach(g.N()) != res.Rounds {
		t.Fatal("RoundsToReach(n) should equal completion round")
	}
}

func TestProbFloodProtocol(t *testing.T) {
	g := Grid(4, 4)
	r := NewRNG(2)
	res, err := Broadcast(g, 0, ProbFloodProtocol(0.6, r), 100000)
	if err != nil || !res.Completed {
		t.Fatal("prob-flood on grid should complete")
	}
}

func TestSpokesmanImprovePublic(t *testing.T) {
	r := NewRNG(3)
	b := RandomBipartite(10, 14, 0.25, r)
	base := SpokesmanGreedy(b)
	imp := SpokesmanImprove(b, base, 5)
	if imp.Unique < base.Unique {
		t.Fatal("improve worsened")
	}
	best := SpokesmanBestImproved(b, 8, r)
	if best.Unique < imp.Unique && best.Unique < base.Unique {
		t.Fatal("best-improved below greedy")
	}
}

func TestMinBipartiteExpansionPublic(t *testing.T) {
	b, err := CoreGraph(8)
	if err != nil {
		t.Fatal(err)
	}
	v, err := MinBipartiteExpansion(b)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 4.4(4): β ≥ log 2s = 4.
	if v < 4 {
		t.Fatalf("core-8 expansion %g < 4", v)
	}
}

func TestExpansionProfilePublic(t *testing.T) {
	p, err := ExpansionProfile(Cycle(12), 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[3]-2.0/3.0) > 1e-12 {
		t.Fatalf("profile[3] = %g", p[3])
	}
}

func TestEdgeExpansionPublic(t *testing.T) {
	h, err := EdgeExpansion(Complete(8))
	if err != nil || h != 4 {
		t.Fatalf("h(K8) = %g, %v", h, err)
	}
}

func TestGBadPluggedPublic(t *testing.T) {
	r := NewRNG(4)
	g, witness, cap, err := GBadPlugged(Torus(8, 8), 8, 6, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 64+8 || len(witness) != 8 {
		t.Fatal("dims wrong")
	}
	if cap != 8*2 { // s·(2β−∆) = 8·2
		t.Fatalf("cap = %d, want 16", cap)
	}
}

func TestGraphIOPublic(t *testing.T) {
	g := Hypercube(3)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil || g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("graph IO round trip failed: %v", err)
	}
	b := RandomBipartite(4, 5, 0.5, NewRNG(5))
	buf.Reset()
	if err := WriteBipartite(&buf, b); err != nil {
		t.Fatal(err)
	}
	b2, err := ReadBipartite(&buf)
	if err != nil || b2.M() != b.M() {
		t.Fatalf("bipartite IO round trip failed: %v", err)
	}
}

func TestProfilesPublic(t *testing.T) {
	tp, err := Profiles(CPlus(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		if tp.Ordinary[k] < tp.Wireless[k]-1e-9 || tp.Wireless[k] < tp.Unique[k]-1e-9 {
			t.Fatalf("size %d: pointwise ordering violated", k)
		}
	}
}

func TestSchedulesPublic(t *testing.T) {
	g := Path(6)
	slots := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		slots[v] = []int{v}
	}
	res, err := Broadcast(g, 0, FixedScheduleProtocol("rr", slots), 1000)
	if err != nil || !res.Completed {
		t.Fatal("fixed schedule failed")
	}
	p, err := RandomScheduleProtocol(g.N(), 16, 0.3, NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err = Broadcast(g, 0, p, 100000)
	if err != nil || !res.Completed {
		t.Fatal("random schedule failed")
	}
}

func TestAlphaSweepPublic(t *testing.T) {
	pts, err := AlphaSweep(CPlus(6), []float64{0.3, 0.5})
	if err != nil || len(pts) != 2 {
		t.Fatalf("sweep failed: %v", err)
	}
	if pts[0].Wireless < pts[1].Wireless {
		t.Fatal("βw(α) should be non-increasing")
	}
}

func TestRemainingPublicGenerators(t *testing.T) {
	if Star(5).Degree(0) != 4 {
		t.Fatal("Star")
	}
	if g := Petersen(); g.N() != 10 || g.M() != 15 {
		t.Fatal("Petersen")
	}
	if CompleteBipartite(2, 3).M() != 6 {
		t.Fatal("CompleteBipartite")
	}
	if Wheel(5).N() != 6 {
		t.Fatal("Wheel")
	}
	if Barbell(3).N() != 6 {
		t.Fatal("Barbell")
	}
	if Lollipop(3, 2).N() != 5 {
		t.Fatal("Lollipop")
	}
	if RandomTree(9, NewRNG(1)).M() != 8 {
		t.Fatal("RandomTree")
	}
}

func TestRunAllExperimentsPublic(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by internal experiment tests")
	}
	results, err := RunAllExperiments(ExperimentConfig{Seed: 2, Quick: true, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ExperimentIDs()) {
		t.Fatal("result count mismatch")
	}
}

func TestUnknownExperimentErrorMessage(t *testing.T) {
	_, err := RunExperiment("E0", ExperimentConfig{})
	if err == nil || err.Error() != "wexp: unknown experiment E0" {
		t.Fatalf("err = %v", err)
	}
}

func TestBroadcastMonteCarlo(t *testing.T) {
	g := CPlus(16)
	factory := func(r *RNG) Protocol { return DecayProtocol(r) }
	res, err := BroadcastMonteCarloWith(context.Background(), g, 0, factory, 16,
		MonteCarloOptions{RunOpts: RunOpts{Seed: 5}, MaxRounds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 16 || res.Completed == 0 {
		t.Fatalf("montecarlo: %d/%d completed", res.Completed, res.Trials)
	}
	if res.Protocol != "decay-bgi" {
		t.Fatalf("protocol = %q", res.Protocol)
	}
	// Determinism across calls and worker widths.
	again, err := BroadcastMonteCarloWith(context.Background(), g, 0, factory, 16,
		MonteCarloOptions{RunOpts: RunOpts{Seed: 5, Workers: 3}, MaxRounds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if again.Rounds != res.Rounds || again.TotalCollisions != res.TotalCollisions {
		t.Fatal("MonteCarlo not reproducible across worker widths")
	}
}
