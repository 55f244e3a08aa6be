// Package radio simulates multihop radio networks under the model of
// Chlamtac–Kutten [8] used throughout the paper: processors communicate in
// synchronous rounds; in each round a processor either transmits or stays
// silent; a silent processor receives a message if and only if exactly one
// of its neighbors transmits; a collision (two or more transmitting
// neighbors) is indistinguishable from silence.
//
// The package provides the primitive round engine plus the broadcast
// protocols the paper discusses: naive flooding (which deadlocks on C⁺),
// the Decay protocol of Bar-Yehuda–Goldreich–Itai [5], round-robin, and an
// offline spokesman-scheduled protocol that transmits only a chosen subset
// of informed vertices each round — the algorithmic counterpart of wireless
// expansion.
package radio

import (
	"fmt"

	"wexp/internal/graph"
)

// Network is the simulation state for one broadcast execution.
type Network struct {
	G        *graph.Graph
	Informed []bool // has the vertex received (or originated) the message
	Round    int    // rounds elapsed

	// Stats
	Collisions    int // vertex-rounds in which ≥2 neighbors transmitted
	Transmissions int // total transmit actions
	InformedCount int
	informedAtRnd []int32 // round at which each vertex became informed (-1 if never)

	rows    *AdjRows     // shared adjacency (bit rows or CSR only)
	scratch *stepScratch // accumulators, allocated on the first accumulate

	source int   // broadcast origin, recorded for models that seed extra state
	model  Model // the receive rule; UnitDisk unless UseModel installed another
}

// NewNetwork creates a network with the single source informed at round 0.
func NewNetwork(g *graph.Graph, source int) (*Network, error) {
	return NewNetworkRows(g, source, nil)
}

// NewNetworkRows is NewNetwork with a pre-built adjacency row cache, so
// harnesses running many trials on one graph (MonteCarlo) pay the row
// construction once. rows == nil builds a private cache; a non-nil rows
// must have been built from g.
func NewNetworkRows(g *graph.Graph, source int, rows *AdjRows) (*Network, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("radio: source %d out of range [0,%d)", source, g.N())
	}
	if rows == nil {
		rows = BuildAdjRows(g)
	} else if rows.n != g.N() {
		return nil, fmt.Errorf("radio: adjacency rows built for n=%d, graph has n=%d", rows.n, g.N())
	}
	// The accumulator bitsets are allocated lazily by the first step, so
	// networks of models with their own loops (SINR, Fading) never pay
	// for them.
	n := &Network{
		G:        g,
		Informed: make([]bool, g.N()),
		rows:     rows,
		source:   source,
	}
	n.informedAtRnd = make([]int32, g.N())
	n.resetFor(source)
	return n, nil
}

// resetFor rewinds the network to a fresh round-0 state with the given
// source informed, keeping every allocation (Informed, informed-at rounds,
// engine scratch) for reuse. MonteCarlo's trial arenas recycle networks
// through it so steady-state memory stays O(workers × per-trial scratch)
// regardless of the trial count. The model is reset to UnitDisk; the
// caller must re-install any other Model.
func (n *Network) resetFor(source int) {
	clear(n.Informed)
	for i := range n.informedAtRnd {
		n.informedAtRnd[i] = -1
	}
	n.Round, n.Collisions, n.Transmissions = 0, 0, 0
	n.model = UnitDisk{}
	n.source = source
	n.Informed[source] = true
	n.informedAtRnd[source] = 0
	n.InformedCount = 1
}

// Done reports whether the installed Model's completion condition holds:
// every vertex informed under unit-disk, every vertex holding all M
// messages under MultiMessage.
func (n *Network) Done() bool { return n.model.Done(n) }

// Source returns the broadcast origin the network was built with.
func (n *Network) Source() int { return n.source }

// UseModel installs the receive-rule model m (non-nil) for this
// execution: the model is forked with salt (giving it private state and
// its random identity) and initialized against the network. A network
// starts under UnitDisk.
func (n *Network) UseModel(m Model, salt uint64) {
	n.model = m.Fork(salt)
	n.model.Init(n)
}

// inform marks v informed at the current round if it is not already,
// reporting whether it was newly informed. Every model commits its
// receptions through it, so informed-at rounds and the informed count
// stay consistent.
func (n *Network) inform(v int) bool {
	if n.Informed[v] {
		return false
	}
	n.Informed[v] = true
	n.informedAtRnd[v] = int32(n.Round)
	n.InformedCount++
	return true
}

// InformedAt returns the round at which v became informed, or -1. Rounds
// are stored as int32 (4 bytes per vertex matters at n = 10⁶; round counts
// are bounded by MaxRounds, far under 2³¹).
func (n *Network) InformedAt(v int) int { return int(n.informedAtRnd[v]) }

// CountInformedIn returns how many of the given vertices are informed.
func (n *Network) CountInformedIn(verts []int) int {
	c := 0
	for _, v := range verts {
		if n.Informed[v] {
			c++
		}
	}
	return c
}

// Protocol decides, each round, which vertices transmit. Implementations
// may only use information a distributed protocol could know (informed
// status, round number, per-vertex randomness) unless explicitly documented
// as an offline/centralized schedule.
type Protocol interface {
	// Name identifies the protocol in experiment tables.
	Name() string
	// Transmitters fills transmit[v] = true for each vertex that transmits
	// this round. The engine ignores transmit flags on uninformed vertices.
	Transmitters(n *Network, transmit []bool)
}

// RunResult summarizes one broadcast execution.
type RunResult struct {
	Protocol      string
	Rounds        int
	Completed     bool
	InformedCount int
	Collisions    int
	Transmissions int
}

// Run executes the protocol until broadcast completes or maxRounds elapse.
func Run(g *graph.Graph, source int, p Protocol, maxRounds int) (RunResult, error) {
	n, err := RunNetwork(g, source, p, maxRounds)
	if err != nil {
		return RunResult{}, err
	}
	return n.summary(p), nil
}

// RunNetwork executes the protocol like Run but returns the final Network,
// exposing per-vertex informed-at rounds for post-hoc analyses (e.g. the
// Section 5 per-hop decomposition R = R₁ + ... + R_{D/2}).
func RunNetwork(g *graph.Graph, source int, p Protocol, maxRounds int) (*Network, error) {
	n, err := NewNetwork(g, source)
	if err != nil {
		return nil, err
	}
	transmit := make([]bool, g.N())
	for n.Round < maxRounds && !n.Done() {
		clear(transmit)
		p.Transmitters(n, transmit)
		n.Step(transmit)
	}
	return n, nil
}

// summary is the RunResult of protocol p's execution on n so far.
func (n *Network) summary(p Protocol) RunResult {
	return RunResult{
		Protocol:      p.Name(),
		Rounds:        n.Round,
		Completed:     n.Done(),
		InformedCount: n.InformedCount,
		Collisions:    n.Collisions,
		Transmissions: n.Transmissions,
	}
}
