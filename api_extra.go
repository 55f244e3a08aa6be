package wexp

import (
	"io"

	"wexp/internal/badgraph"
	"wexp/internal/expansion"
	"wexp/internal/graph"
	"wexp/internal/radio"
	"wexp/internal/spokesman"
)

// Trace records per-round broadcast progress (see BroadcastTraced).
type Trace = radio.Trace

// BroadcastTraced runs a protocol like Broadcast and additionally records
// the per-round informed counts, collisions, and transmissions.
func BroadcastTraced(g *Graph, source int, p Protocol, maxRounds int) (BroadcastResult, *Trace, error) {
	return radio.RunTraced(g, source, p, maxRounds)
}

// ProbFloodProtocol returns a protocol in which every informed vertex
// transmits independently with fixed probability p each round.
func ProbFloodProtocol(p float64, r *RNG) Protocol {
	return &radio.ProbFlood{P: p, R: r}
}

// SpokesmanImprove hill-climbs a selection by single-vertex flips; it never
// returns a worse selection than its input.
func SpokesmanImprove(b *Bipartite, sel Selection, maxPasses int) Selection {
	return spokesman.Improve(b, sel, maxPasses)
}

// SpokesmanBestImproved runs the full portfolio and hill-climbs the winner.
func SpokesmanBestImproved(b *Bipartite, trials int, r *RNG) Selection {
	return spokesman.BestImproved(b, trials, r)
}

// ExpansionOptions configures the exact expansion engine: the α (or MaxK)
// size cap, the search's work budget, and the worker-pool width. See the
// expansion package's Options for field semantics; results and search
// counters are bit-identical at every pool width.
type ExpansionOptions = expansion.Options

// ExpansionBudget is the default work budget (in enumeration units) used
// by the exact solvers when ExpansionOptions.Budget is zero.
const ExpansionBudget = expansion.DefaultBudget

// ExpansionFeasible reports whether the exact engine would accept an
// enumeration of sets up to size ⌊α·n⌋ on an n-vertex graph under the
// given budget (0 means the default) — the check cmd/wexp uses to pick
// between exact solvers and estimators. The wireless objective is the most
// expensive; feasibility for it implies feasibility for β and βu.
func ExpansionFeasible(n int, alpha float64, budget uint64) bool {
	return expansion.Feasible(n, expansion.MaxSetSize(n, alpha), expansion.ObjWireless, budget)
}

// MinBipartiteExpansion computes the exact bipartite vertex expansion
// min over nonempty S' ⊆ S of |Γ(S')|/|S'| under the default work budget,
// the quantity Lemma 4.4(4) lower-bounds for the core graph.
func MinBipartiteExpansion(b *Bipartite) (float64, error) {
	res, err := expansion.MinBipartiteExpansion(b)
	if err != nil {
		return 0, err
	}
	return res.Value, nil
}

// ExpansionProfile returns the per-size minimum expansion
// profile[k] = min{|Γ⁻(S)|/|S| : |S| = k} for k = 1..maxK under the
// default work budget; index 0 is unused.
func ExpansionProfile(g *Graph, maxK int) ([]float64, error) {
	p, err := expansion.OrdinaryProfile(g, maxK)
	if err != nil {
		return nil, err
	}
	return p.MinExpansion, nil
}

// EdgeExpansion computes the exact Cheeger constant
// h(G) = min{|e(S,S̄)|/|S| : 0 < |S| ≤ n/2} under the default work budget.
func EdgeExpansion(g *Graph) (float64, error) {
	res, err := expansion.EdgeExpansion(g)
	if err != nil {
		return 0, err
	}
	return res.Value, nil
}

// GBadPlugged plugs the Lemma 3.3 construction onto an ordinary expander
// (the remark after Lemma 3.3), returning the combined graph, the witness
// set whose unique-neighbor expansion is capped at 2β−∆, and that cap.
func GBadPlugged(g *Graph, s, delta, beta int, r *RNG) (*Graph, []int, int, error) {
	p, err := badgraph.NewGBadPlugged(g, s, delta, beta, r)
	if err != nil {
		return nil, nil, 0, err
	}
	return p.G, p.WitnessSet(), p.UniqueCap(), nil
}

// WriteGraph serializes a graph as a plain-text edge list.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadGraph parses the WriteGraph format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteBipartite serializes a bipartite graph as a plain-text edge list.
func WriteBipartite(w io.Writer, b *Bipartite) error {
	return graph.WriteBipartiteEdgeList(w, b)
}

// ReadBipartite parses the WriteBipartite format.
func ReadBipartite(r io.Reader) (*Bipartite, error) {
	return graph.ReadBipartiteEdgeList(r)
}

// TripleProfile bundles per-size minima of β, βw, βu (see Profiles).
type TripleProfile = expansion.TripleProfile

// Profiles computes, for every set size k = 1..maxK, the exact minima of
// ordinary, wireless, and unique expansion over sets of that size, under
// the default work budget (the wireless pass dominates: Σ C(n,k)·2^k).
// Observation 2.1's chain β ≥ βw ≥ βu holds pointwise in every row.
func Profiles(g *Graph, maxK int) (*TripleProfile, error) {
	return expansion.Profiles(g, maxK)
}

// FixedScheduleProtocol returns an oblivious protocol cycling through the
// given transmission slots (vertex-id lists); see the radio package's
// FixedSchedule.
func FixedScheduleProtocol(label string, slots [][]int) Protocol {
	return &radio.FixedSchedule{Label: label, Slots: slots}
}

// RandomScheduleProtocol returns an oblivious schedule of the given period
// in which every vertex transmits in each slot independently with
// probability p (fixed before execution).
func RandomScheduleProtocol(n, period int, p float64, r *RNG) (Protocol, error) {
	return radio.NewRandomSchedule(n, period, p, r)
}

// AlphaPoint is one row of AlphaSweep.
type AlphaPoint = expansion.AlphaPoint

// AlphaSweep evaluates β, βw, βu exactly at a grid of α values under the
// default work budget. All three are non-increasing in α.
func AlphaSweep(g *Graph, alphas []float64) ([]AlphaPoint, error) {
	return expansion.AlphaSweep(g, alphas)
}
