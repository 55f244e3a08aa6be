package radio

import (
	"wexp/internal/graph"
	"wexp/internal/rng"
)

// Trace records the per-round progress of a broadcast execution, enabling
// the E9-style analyses: informed counts over time and the round at which
// given vertex groups were reached.
type Trace struct {
	Informed      []int // Informed[t] = informed count after round t (index 0 = initial)
	Newly         []int // Newly[t] = newly informed in round t (index 0 unused)
	Collisions    []int // per-round collision counts
	Transmissions []int // per-round transmission counts
}

// RunTraced executes the protocol like Run, additionally recording a Trace.
func RunTraced(g *graph.Graph, source int, p Protocol, maxRounds int) (RunResult, *Trace, error) {
	n, err := NewNetwork(g, source)
	if err != nil {
		return RunResult{}, nil, err
	}
	tr := &Trace{
		Informed:      []int{n.InformedCount},
		Newly:         []int{0},
		Collisions:    []int{0},
		Transmissions: []int{0},
	}
	transmit := make([]bool, g.N())
	for n.Round < maxRounds && !n.Done() {
		clear(transmit)
		prevColl, prevTx := n.Collisions, n.Transmissions
		p.Transmitters(n, transmit)
		newly := n.Step(transmit)
		tr.Informed = append(tr.Informed, n.InformedCount)
		tr.Newly = append(tr.Newly, newly)
		tr.Collisions = append(tr.Collisions, n.Collisions-prevColl)
		tr.Transmissions = append(tr.Transmissions, n.Transmissions-prevTx)
	}
	return n.summary(p), tr, nil
}

// RoundsToReach returns the first round index at which the informed count
// reached the target, or -1 if it never did.
func (t *Trace) RoundsToReach(target int) int {
	for round, c := range t.Informed {
		if c >= target {
			return round
		}
	}
	return -1
}

// ProbFlood is the probabilistic flooding protocol: every informed vertex
// transmits independently with a fixed probability p each round. It
// interpolates between flooding (p = 1, deadlocks on C⁺) and heavy backoff
// (small p, slow); unlike Decay it does not adapt to unknown degrees, so on
// graphs with mixed neighborhood sizes some vertices starve — a useful
// baseline against which Decay's log-sweep shows its value.
type ProbFlood struct {
	P float64
	R *rng.RNG
}

// Name implements Protocol.
func (*ProbFlood) Name() string { return "prob-flood" }

// Transmitters implements Protocol.
func (pf *ProbFlood) Transmitters(n *Network, transmit []bool) {
	for v, inf := range n.Informed {
		if inf {
			transmit[v] = pf.R.Bernoulli(pf.P)
		}
	}
}
