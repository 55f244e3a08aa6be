package expansion

import (
	"fmt"
	"math/bits"

	"wexp/internal/bitset"
	"wexp/internal/graph"
)

// Result reports a measured expansion value together with the set that
// realizes the minimum and, for wireless expansion, the inner subset
// realizing the max. ArgSet/ArgInner are uint64 masks and are populated
// only when n ≤ 64; Witness/InnerWitness are populated for every n.
type Result struct {
	Value    float64 // the expansion parameter (β, βu, or βw)
	ArgSet   uint64  // minimizing set S (bitmask over vertices; n ≤ 64 only)
	ArgInner uint64  // for βw: the maximizing S' ⊆ S; zero otherwise
	Sets     int     // number of candidate sets actually evaluated

	Witness      *bitset.Set // minimizing set S, any n
	InnerWitness *bitset.Set // for βw: the maximizing S' ⊆ S; nil otherwise

	// Pruned counts candidate sets skipped without evaluation: sets inside
	// subtrees cut by the bound plus per-set floor skips inside leaves.
	// Saturates at MaxInt64 (a single pruned subtree can cover more sets
	// than int64 holds). Deterministic at every worker count — the search
	// partitions work by instance shape, not schedule.
	Pruned int64

	// Visited counts search-tree nodes expanded; SubtreesPruned counts
	// whole subtrees cut without a visit. Both are worker-invariant like
	// Pruned.
	Visited        int64
	SubtreesPruned int64

	// Kernel names the representation that produced the result (small-bnb
	// for n ≤ 64, big-bnb otherwise, or randomized-ppsz) — observability
	// only (it feeds wexpd's /metrics); both search representations return
	// bit-identical results.
	Kernel string

	// Cert states what Value is worth: exact proof, randomized certificate
	// with explicit failure probability, or uncertified estimate.
	Cert Certificate
}

// Exact computes the chosen expansion objective exactly with the
// branch-and-bound search (bnb.go) under opt's work budget, fanned over the
// deterministic worker pool. Any n is accepted as long as the search fits
// the budget.
func Exact(g *graph.Graph, obj Objective, opt Options) (Result, error) {
	n := g.N()
	maxK := opt.MaxK
	if maxK == 0 {
		maxK = MaxSetSize(n, opt.Alpha)
	}
	if maxK <= 0 {
		return Result{}, fmt.Errorf("expansion: α=%g admits no nonempty set on n=%d", opt.Alpha, n)
	}
	if maxK > n {
		maxK = n
	}
	out, err := solve(g, obj, maxK, opt, false)
	if err != nil {
		return Result{}, err
	}
	return out.aggregate(), nil
}

// ExactOrdinary computes β(G) = min{|Γ⁻(S)|/|S| : 0 < |S| ≤ α·n} exactly
// under the default work budget.
func ExactOrdinary(g *graph.Graph, alpha float64) (Result, error) {
	return Exact(g, ObjOrdinary, Options{Alpha: alpha})
}

// ExactUnique computes βu(G) = min{|Γ¹(S)|/|S| : 0 < |S| ≤ α·n} exactly
// under the default work budget.
func ExactUnique(g *graph.Graph, alpha float64) (Result, error) {
	return Exact(g, ObjUnique, Options{Alpha: alpha})
}

// ExactWireless computes βw(G) = min over S (|S| ≤ α·n) of
// max over S' ⊆ S of |Γ¹_S(S')| / |S|, exactly, under the default work
// budget (which covers n ≤ 16 at α = 1 with headroom).
func ExactWireless(g *graph.Graph, alpha float64) (Result, error) {
	return Exact(g, ObjWireless, Options{Alpha: alpha})
}

// WirelessOfSet returns max over S' ⊆ S of |Γ¹_S(S')| and the maximizing
// subset, for adjacency masks of a graph with n ≤ 64. The caller guarantees
// S ≠ 0. Enumeration walks all submasks of S.
func WirelessOfSet(masks []uint64, S uint64) (int, uint64) {
	bestCount, bestSet := 0, uint64(0)
	// Standard submask enumeration: S' = (S'-1) & S visits every submask.
	for sub := S; ; sub = (sub - 1) & S {
		if sub != 0 {
			uniq := uniqueMask(masks, sub) &^ S
			if c := bits.OnesCount64(uniq); c > bestCount {
				bestCount = c
				bestSet = sub
			}
		}
		if sub == 0 {
			break
		}
	}
	return bestCount, bestSet
}

// uniqueMask returns the mask of vertices outside S' covered by exactly one
// vertex of S' — note: outside S', not outside a containing S; callers
// subtract S themselves when computing Γ¹_S.
func uniqueMask(masks []uint64, Sprime uint64) uint64 {
	var once, twice uint64
	for rest := Sprime; rest != 0; rest &= rest - 1 {
		m := masks[bits.TrailingZeros64(rest)]
		twice |= once & m
		once |= m
	}
	return once &^ twice &^ Sprime
}

// MaxSetSize converts α into the paper's |S| ≤ α·n cap — the single
// definition the engine, the feasibility check, and the CLI all share.
func MaxSetSize(n int, alpha float64) int {
	if alpha <= 0 {
		return 0
	}
	maxSize := int(alpha * float64(n))
	if maxSize > n {
		maxSize = n
	}
	return maxSize
}

// Ordering verifies Observation 2.1 — β(G) ≥ βw(G) ≥ βu(G) for a common α
// — exactly, returning the three values. Intended for budget-sized graphs.
func Ordering(g *graph.Graph, alpha float64) (beta, betaW, betaU float64, err error) {
	rb, err := ExactOrdinary(g, alpha)
	if err != nil {
		return 0, 0, 0, err
	}
	rw, err := ExactWireless(g, alpha)
	if err != nil {
		return 0, 0, 0, err
	}
	ru, err := ExactUnique(g, alpha)
	if err != nil {
		return 0, 0, 0, err
	}
	return rb.Value, rw.Value, ru.Value, nil
}
