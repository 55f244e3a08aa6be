package radio

import (
	"testing"

	"wexp/internal/graph"
)

// fuzzGraph builds an n-vertex graph from fuzzer-owned edge bytes.
func fuzzGraph(n int, edges []byte) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(edges); i += 2 {
		u, v := int(edges[i])%n, int(edges[i+1])%n
		if u != v {
			b.MustAddEdge(u, v)
		}
	}
	return b.Build()
}

// FuzzRadioModels checks the cross-model invariants over adversarial
// (graph, model, transmit) inputs: the informed set only ever grows, the
// informed count matches the flags, per-round stats are monotone, dense
// rows and the CSR scatter agree bit for bit, and the exactly-one models
// (unit-disk, multi-message, jam) agree with their counting oracles.
func FuzzRadioModels(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3}, []byte{0, 2, 1}, uint8(0))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 4, 5}, []byte{0, 4, 5, 1}, uint8(1))
	f.Add([]byte{3, 7, 7, 11, 11, 3}, []byte{3, 7, 11, 2}, uint8(2))
	f.Add([]byte{1, 2, 2, 3, 3, 4, 4, 1}, []byte{1, 3, 0}, uint8(3))
	f.Add([]byte{}, []byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, edges, transmitters []byte, sel uint8) {
		const n = 24
		g := fuzzGraph(n, edges)
		models := []Model{
			UnitDisk{},
			&SINR{Alpha: 1, Beta: 0.5, N0: 0.1, Power: 1},
			&Fading{P: float64(sel%128) / 128, Seed: uint64(sel)},
			&MultiMessage{M: 1 + int(sel)%8},
			&Jam{Budget: int(sel) % 4, Policy: []string{JamByDegree, JamByFrontier}[int(sel/4)%2]},
		}
		m := models[int(sel)%len(models)]
		ref := oracleFor(m)
		nets := make([]*Network, 3) // dense rows, CSR scatter, oracle
		for i, rows := range []*AdjRows{newAdjRows(g, true), newAdjRows(g, false), nil} {
			net, err := NewNetworkRows(g, 0, rows)
			if err != nil {
				t.Fatal(err)
			}
			net.UseModel(m, uint64(sel))
			nets[i] = net
		}
		net := nets[0]
		prevInformed := make([]bool, n)
		copy(prevInformed, net.Informed)
		prevCount := net.InformedCount
		for round := 0; round < 4; round++ {
			transmit := make([]bool, n)
			for i := round; i < len(transmitters); i += 4 {
				transmit[int(transmitters[i])%n] = true
			}
			newly := net.Step(transmit)
			if newly < 0 {
				t.Fatalf("round %d: negative newly %d", round, newly)
			}
			count := 0
			for v := 0; v < n; v++ {
				if prevInformed[v] && !net.Informed[v] {
					t.Fatalf("round %d: vertex %d became uninformed", round, v)
				}
				if net.Informed[v] {
					count++
					if at := net.InformedAt(v); at < 0 || at > net.Round {
						t.Fatalf("round %d: vertex %d informed-at %d out of range", round, v, at)
					}
				}
			}
			if count != net.InformedCount {
				t.Fatalf("round %d: InformedCount %d, flags say %d", round, net.InformedCount, count)
			}
			if net.InformedCount-prevCount != newly {
				t.Fatalf("round %d: newly %d but count went %d -> %d", round, newly, prevCount, net.InformedCount)
			}
			if net.Collisions < 0 || net.Transmissions < 0 {
				t.Fatalf("round %d: negative stats", round)
			}
			if nc := nets[1].Step(transmit); nc != newly {
				t.Fatalf("round %d: %s newly %d (csr) != %d (dense)", round, m.Name(), nc, newly)
			}
			compareNetworks(t, nets[1], net)
			if ref != nil {
				if no := ref(nets[2], transmit); no != newly {
					t.Fatalf("round %d: %s newly %d (oracle) != %d (dense)", round, m.Name(), no, newly)
				}
				compareNetworks(t, nets[2], net)
			}
			copy(prevInformed, net.Informed)
			prevCount = net.InformedCount
		}
	})
}

// FuzzRadioStep feeds arbitrary (graph, informed set, transmit masks)
// triples to the unit-disk step on dense rows, on the CSR scatter and to
// the counting oracle, and requires bit-for-bit agreement on every
// observable — the same contract the differential corpus checks, but over
// adversarial inputs: the fuzzer owns the edge list, the pre-informed
// set, and three consecutive rounds of transmit flags (including flags on
// uninformed vertices, which every path must ignore).
func FuzzRadioStep(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2}, []byte{0}, []byte{0, 2})
	f.Add([]byte{0, 1, 0, 2, 1, 2}, []byte{0, 1}, []byte{0, 1, 2})
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte{3, 7, 7, 11, 11, 3, 1, 2}, []byte{3, 9}, []byte{7, 3, 9, 1})
	f.Fuzz(func(t *testing.T, edges, informed, transmitters []byte) {
		const n = 24
		g := fuzzGraph(n, edges)
		dense, csr, oracle := lockstepNets(t, g, 0, UnitDisk{})
		for _, raw := range informed {
			v := int(raw) % n
			dense.inform(v)
			csr.inform(v)
			oracle.inform(v)
		}
		// Three rounds from the fuzzed transmit bytes: round r uses every
		// third byte, so multi-round interactions (newly informed vertices
		// transmitting next round) are exercised too.
		for round := 0; round < 3; round++ {
			transmit := make([]bool, n)
			for i := round; i < len(transmitters); i += 3 {
				transmit[int(transmitters[i])%n] = true
			}
			nd, nc, no := dense.Step(transmit), csr.Step(transmit), stepScalar(oracle, transmit)
			if nd != no || nc != no {
				t.Fatalf("round %d: newly informed dense=%d csr=%d oracle=%d", round, nd, nc, no)
			}
			compareNetworks(t, dense, oracle)
			compareNetworks(t, csr, oracle)
		}
	})
}
