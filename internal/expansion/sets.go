// Package expansion measures the three expansion notions of the paper on
// concrete graphs: ordinary expansion β (Section 2.1), unique-neighbor
// expansion βu, and wireless expansion βw (Section 2.2).
//
// Two regimes are supported. Exact solvers run one branch-and-bound search
// over candidate sets under a caller-supplied work budget (see Options and
// DefaultBudget) — any vertex count is accepted as long as the search fits,
// with βw priced at 2^|S| per evaluated set because its inner optimization
// over S' ⊆ S is itself NP-hard, being the spokesman election problem. The
// search fans over a worker pool whose fixed-shape partition and
// deterministic merge make results bit-identical at every pool width.
// Beyond the budget, estimators sample adversarial set families (BFS
// balls, random k-sets, low-degree sets) and report certified one-sided
// bounds, labeled as such. See README.md in this directory for the engine
// design.
package expansion

import (
	"wexp/internal/bitset"
	"wexp/internal/graph"
)

// Gamma returns Γ(S): the union of neighborhoods of vertices of S
// (including neighbors inside S), as a bitset over V(g).
func Gamma(g *graph.Graph, S *bitset.Set) *bitset.Set {
	out := bitset.New(g.N())
	S.ForEach(func(u int) {
		for _, w := range g.Neighbors(u) {
			out.Add(int(w))
		}
	})
	return out
}

// GammaMinus returns Γ⁻(S) = Γ(S) \ S, the external neighborhood.
func GammaMinus(g *graph.Graph, S *bitset.Set) *bitset.Set {
	out := Gamma(g, S)
	out.Subtract(S)
	return out
}

// Gamma1 returns Γ¹(S): the set of vertices outside S adjacent to exactly
// one vertex of S (the unique neighborhood, Section 2.1).
func Gamma1(g *graph.Graph, S *bitset.Set) *bitset.Set {
	once := bitset.New(g.N())
	twice := bitset.New(g.N())
	tmp := bitset.New(g.N())
	S.ForEach(func(u int) {
		tmp.Clear()
		for _, w := range g.Neighbors(u) {
			tmp.Add(int(w))
		}
		// twice |= once ∩ tmp ; once |= tmp
		overlap := once.Clone()
		overlap.Intersect(tmp)
		twice.Union(overlap)
		once.Union(tmp)
	})
	once.Subtract(twice)
	once.Subtract(S)
	return once
}

// Gamma1Excluding returns Γ¹_S(S'): the set of vertices outside S with a
// unique neighbor in S' (Section 2.1's S-excluding unique-neighborhood).
// S' must be a subset of S; the function does not verify this.
func Gamma1Excluding(g *graph.Graph, S, Sprime *bitset.Set) *bitset.Set {
	out := Gamma1(g, Sprime)
	out.Subtract(S)
	return out
}

// SetExpansion returns |Γ⁻(S)| / |S| for a nonempty S (0 for empty S).
func SetExpansion(g *graph.Graph, S *bitset.Set) float64 {
	c := S.Count()
	if c == 0 {
		return 0
	}
	return float64(GammaMinus(g, S).Count()) / float64(c)
}

// SetUniqueExpansion returns |Γ¹(S)| / |S| for a nonempty S.
func SetUniqueExpansion(g *graph.Graph, S *bitset.Set) float64 {
	c := S.Count()
	if c == 0 {
		return 0
	}
	return float64(Gamma1(g, S).Count()) / float64(c)
}

// adjMasks precomputes uint64 adjacency masks for graphs with n ≤ 64, the
// representation used by every exact solver.
func adjMasks(g *graph.Graph) []uint64 {
	if g.N() > 64 {
		panic("expansion: exact solvers require n <= 64")
	}
	masks := make([]uint64, g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			masks[v] |= 1 << uint(w)
		}
	}
	return masks
}
