package radio

import (
	"testing"

	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
)

// TestInformedMonotone checks the model's basic safety property: a vertex
// that is informed stays informed, so the informed set is monotone
// nondecreasing under every protocol.
func TestInformedMonotone(t *testing.T) {
	r := rng.New(11)
	g := gen.Torus(6, 6)
	protos := []Protocol{Flood{}, RoundRobin{}, &Decay{R: r.Split()},
		&ProbFlood{P: 0.5, R: r.Split()}, &Spokesman{R: r.Split(), Trials: 2}}
	for _, p := range protos {
		net, err := NewNetwork(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		prev := make([]bool, g.N())
		copy(prev, net.Informed)
		transmit := make([]bool, g.N())
		for net.Round < 200 && !net.Done() {
			for i := range transmit {
				transmit[i] = false
			}
			p.Transmitters(net, transmit)
			net.Step(transmit)
			for v, was := range prev {
				if was && !net.Informed[v] {
					t.Fatalf("%s: vertex %d forgot the message at round %d", p.Name(), v, net.Round)
				}
			}
			copy(prev, net.Informed)
		}
	}
}

// TestFloodDeadlocksForeverOnCPlus strengthens the Section 2 example: on
// C⁺ flooding informs exactly {s0, x, y} in round one and then the
// informed set is a fixed point — every clique vertex hears a collision
// in every subsequent round, forever (checked over a long horizon, with
// per-round collision counts constant once deadlocked).
func TestFloodDeadlocksForeverOnCPlus(t *testing.T) {
	g := gen.CPlus(20)
	res, tr, err := RunTraced(g, 0, Flood{}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("flood completed on C⁺")
	}
	if res.InformedCount != 3 {
		t.Fatalf("informed = %d, want 3 (s0, x, y)", res.InformedCount)
	}
	for round, c := range tr.Informed {
		if round >= 1 && c != 3 {
			t.Fatalf("round %d: informed %d, want fixed point 3", round, c)
		}
	}
	// From round 2 on, x and y transmit into the clique: all n−2 remaining
	// clique vertices (plus none else) hear ≥2 transmitters every round.
	for round := 2; round < len(tr.Collisions); round++ {
		if tr.Collisions[round] != g.N()-3 {
			t.Fatalf("round %d: %d collisions, want %d every round forever",
				round, tr.Collisions[round], g.N()-3)
		}
	}
}

// TestFixedScheduleIgnoresOutOfRange checks that slots may contain ids
// outside [0, n) without panicking or transmitting.
func TestFixedScheduleIgnoresOutOfRange(t *testing.T) {
	g := gen.Path(4)
	net, err := NewNetwork(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched := &FixedSchedule{Slots: [][]int{{-3, 99, 0}}}
	transmit := make([]bool, g.N())
	sched.Transmitters(net, transmit)
	for v, tx := range transmit {
		if tx != (v == 0) {
			t.Fatalf("transmit[%d] = %v", v, tx)
		}
	}
	net.Step(transmit)
	if net.Transmissions != 1 || !net.Informed[1] {
		t.Fatalf("out-of-range slot corrupted the round: %+v", net)
	}
	// Empty schedule: no transmitters at all.
	empty := &FixedSchedule{}
	for i := range transmit {
		transmit[i] = false
	}
	empty.Transmitters(net, transmit)
	for v, tx := range transmit {
		if tx {
			t.Fatalf("empty schedule transmitted at %d", v)
		}
	}
	if empty.Name() != "fixed-schedule" {
		t.Fatalf("default name = %q", empty.Name())
	}
}

// TestFixedScheduleIgnoresUninformed checks that a scheduled vertex that
// does not hold the message stays silent.
func TestFixedScheduleIgnoresUninformed(t *testing.T) {
	g := gen.Path(5)
	net, err := NewNetwork(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Slot schedules vertices 0 and 3; only 0 is informed.
	sched := &FixedSchedule{Label: "probe", Slots: [][]int{{0, 3}}}
	transmit := make([]bool, g.N())
	sched.Transmitters(net, transmit)
	if transmit[3] {
		t.Fatal("uninformed vertex 3 scheduled to transmit")
	}
	net.Step(transmit)
	if net.Transmissions != 1 {
		t.Fatalf("transmissions = %d, want 1", net.Transmissions)
	}
	if net.Informed[2] || net.Informed[4] {
		t.Fatal("silence from vertex 3 informed its neighbors")
	}
	if sched.Name() != "probe" {
		t.Fatalf("label not used: %q", sched.Name())
	}
}

// TestAdaptiveEngineChoice pins the per-graph strategy: dense graphs get
// bit rows, sparse ones scatter from the CSR and allocate no rows (the
// outputs are identical either way; this is a performance contract).
func TestAdaptiveEngineChoice(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		rows bool
	}{
		{"cplus-256", gen.CPlus(255), true},
		{"er-256-dense", gen.ErdosRenyi(256, 0.1, rng.New(1)), true},
		// Torus(16,16): degree 4 equals the 4-word row width, so even this
		// sparse family rides the word sweep at small n.
		{"torus-16x16", gen.Torus(16, 16), true},
		{"hypercube-12", gen.Hypercube(12), false},
		{"torus-64x64", gen.Torus(64, 64), false},
		{"path-500", gen.Path(500), false},
	}
	for _, c := range cases {
		if got := BuildAdjRows(c.g).rows != nil; got != c.rows {
			t.Errorf("%s: rows built=%v, want %v", c.name, got, c.rows)
		}
	}
}

// TestNewNetworkRowsValidation checks the shared-rows constructor rejects
// mismatched caches.
func TestNewNetworkRowsValidation(t *testing.T) {
	rows := BuildAdjRows(gen.Path(5))
	if _, err := NewNetworkRows(gen.Path(6), 0, rows); err == nil {
		t.Fatal("mismatched rows accepted")
	}
	net, err := NewNetworkRows(gen.Path(5), 0, rows)
	if err != nil || net == nil {
		t.Fatalf("matching rows rejected: %v", err)
	}
}
