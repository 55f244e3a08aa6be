package radio

import (
	"slices"
	"testing"

	"wexp/internal/graph"
)

// The per-arc counting oracles of the exactly-one receive rule. The engine
// evaluates the rule once, in accumulate, with set algebra over bit rows or
// the CSR scatter; these references count every vertex's transmitting
// neighbors instead, the way the rule is stated. The lockstep corpora and
// the fuzz targets drive both in lockstep and require bit-for-bit
// agreement on every observable.

// scalarRound counts every vertex's transmitting neighbors, advances Round,
// Transmissions and Collisions like the engine, and calls receive(v, from)
// for each silent vertex v with exactly one transmitting neighbor from, in
// ascending order of v. Vertices that are not informed cannot transmit.
func scalarRound(n *Network, transmit []bool, receive func(v int, from int32)) {
	hits := make([]int32, n.G.N())
	from := make([]int32, n.G.N())
	for v := 0; v < n.G.N(); v++ {
		if !transmit[v] || !n.Informed[v] {
			continue
		}
		n.Transmissions++
		for _, w := range n.G.Neighbors(v) {
			hits[w]++
			from[w] = int32(v)
		}
	}
	n.Round++
	for v, h := range hits {
		switch {
		case transmit[v] && n.Informed[v]:
			// A transmitting processor is not silent: it receives nothing.
		case h == 1:
			receive(v, from[v])
		case h >= 2:
			n.Collisions++
		}
	}
}

// stepScalar is the unit-disk oracle: every exactly-one vertex is informed.
func stepScalar(n *Network, transmit []bool) int {
	newly := 0
	scalarRound(n, transmit, func(v int, _ int32) {
		if n.inform(v) {
			newly++
		}
	})
	return newly
}

// scalarJam is the oracle of the installed Jam model: the uninformed
// exactly-one vertices, ascending, go through the model's own commit.
func scalarJam(n *Network, transmit []bool) int {
	var cands []int32
	scalarRound(n, transmit, func(v int, _ int32) {
		if !n.Informed[v] {
			cands = append(cands, int32(v))
		}
	})
	return n.model.(*Jam).commit(n, cands)
}

// scalarMulti is the oracle of the installed MultiMessage model: every
// exactly-one vertex merges the message set of its sole transmitter.
func scalarMulti(n *Network, transmit []bool) int {
	m := n.model.(*MultiMessage)
	newly := 0
	scalarRound(n, transmit, func(v int, from int32) {
		m.have[v] |= m.have[from]
		if n.inform(v) {
			newly++
		}
	})
	return newly
}

// oracleFor returns the counting oracle of an exactly-one model, or nil
// for models with their own loops (SINR, Fading).
func oracleFor(m Model) func(*Network, []bool) int {
	switch m.(type) {
	case UnitDisk:
		return stepScalar
	case *Jam:
		return scalarJam
	case *MultiMessage:
		return scalarMulti
	}
	return nil
}

// useCSR forces BuildAdjRows to keep no rows for the rest of the test, so
// MonteCarlo runs the CSR scatter on any graph.
func useCSR(t *testing.T) {
	t.Helper()
	saved := forceCSR
	forceCSR = true
	t.Cleanup(func() { forceCSR = saved })
}

// lockstepNets returns three networks on g under model m (forked with salt
// 0): one with dense bit rows, one on the CSR scatter, and one for the
// oracle to step.
func lockstepNets(t *testing.T, g *graph.Graph, source int, m Model) (dense, csr, oracle *Network) {
	t.Helper()
	nets := make([]*Network, 3)
	for i, rows := range []*AdjRows{newAdjRows(g, true), newAdjRows(g, false), nil} {
		net, err := NewNetworkRows(g, source, rows)
		if err != nil {
			t.Fatal(err)
		}
		net.UseModel(m, 0)
		nets[i] = net
	}
	return nets[0], nets[1], nets[2]
}

// lockstep runs proto under the exactly-one model m on the three networks
// of lockstepNets — dense rows and CSR scatter through Step, the third
// through the model's counting oracle — feeding all the identical transmit
// set each round, and fails on the first divergence in any observable:
// newly-informed count, Informed, InformedCount, Collisions,
// Transmissions, per-vertex informed-at rounds, message sets, or Done.
func lockstep(t *testing.T, g *graph.Graph, source int, proto Protocol, m Model, maxRounds int) {
	t.Helper()
	ref := oracleFor(m)
	dense, csr, oracle := lockstepNets(t, g, source, m)
	transmit := make([]bool, g.N())
	for dense.Round < maxRounds && !dense.Done() {
		clear(transmit)
		proto.Transmitters(dense, transmit)
		nd, nc, no := dense.Step(transmit), csr.Step(transmit), ref(oracle, transmit)
		if nd != no || nc != no {
			t.Fatalf("%s round %d: newly informed dense=%d csr=%d oracle=%d", m.Name(), oracle.Round, nd, nc, no)
		}
		compareNetworks(t, dense, oracle)
		compareNetworks(t, csr, oracle)
		if dense.Done() != oracle.Done() || csr.Done() != oracle.Done() {
			t.Fatalf("%s round %d: Done dense=%v csr=%v oracle=%v", m.Name(), oracle.Round, dense.Done(), csr.Done(), oracle.Done())
		}
	}
}

// compareNetworks fails on the first observable in which a and b differ.
func compareNetworks(t *testing.T, a, b *Network) {
	t.Helper()
	if a.InformedCount != b.InformedCount {
		t.Fatalf("round %d: InformedCount %d != %d", a.Round, a.InformedCount, b.InformedCount)
	}
	if a.Collisions != b.Collisions {
		t.Fatalf("round %d: Collisions %d != %d", a.Round, a.Collisions, b.Collisions)
	}
	if a.Transmissions != b.Transmissions {
		t.Fatalf("round %d: Transmissions %d != %d", a.Round, a.Transmissions, b.Transmissions)
	}
	for v := range a.Informed {
		if a.Informed[v] != b.Informed[v] {
			t.Fatalf("round %d: Informed[%d] %v != %v", a.Round, v, a.Informed[v], b.Informed[v])
		}
		if a.InformedAt(v) != b.InformedAt(v) {
			t.Fatalf("round %d: InformedAt(%d) %d != %d", a.Round, v, a.InformedAt(v), b.InformedAt(v))
		}
	}
	am, aok := a.model.(*MultiMessage)
	bm, bok := b.model.(*MultiMessage)
	if aok && bok && !slices.Equal(am.have, bm.have) {
		t.Fatalf("round %d: message sets differ", a.Round)
	}
}
