package expansion

import (
	"wexp/internal/bitset"
	"wexp/internal/graph"
)

// The serial, non-pruning test oracle of the exact search. It walks every
// k-set in colex order (Gosper's hack on uint64 masks, NextCombination on
// bitsets) and evaluates each from scratch with the single-set evaluators,
// so it shares neither the search tree, the bounds, the incremental leaf
// state nor the worker pool with the code under test. The differential
// tests and FuzzExpansionKernels demand that every search path — small,
// forceBig, bipartite, and the randomized tier's exhaustive strata —
// reproduces its answer bit for bit.

// chunk is one contiguous slice of the by-cardinality enumeration: `count`
// k-combinations starting at colex rank `start`.
type chunk struct {
	k     int
	start uint64
	count uint64
}

// makeChunks splits the by-cardinality enumeration into about pieces·8
// work-balanced contiguous chunks. Different piece counts cut the rank
// space at different places, which exercises the unranking.
func makeChunks(n, maxK int, obj Objective, pieces int) []chunk {
	target := enumWork(n, maxK, obj)/uint64(pieces*8) + 1
	var chunks []chunk
	for k := 1; k <= maxK; k++ {
		ck := binom(n, k)
		per := max(target/setCost(obj, k), 1)
		for start := uint64(0); start < ck; start += per {
			chunks = append(chunks, chunk{k: k, start: start, count: min(per, ck-start)})
		}
	}
	return chunks
}

// combinationMask returns the k-combination of {0..n-1} with colex rank r
// as a uint64 mask (n ≤ 64). Colex rank order coincides with numeric mask
// order, the order Gosper's hack enumerates.
func combinationMask(n, k int, r uint64) uint64 {
	var mask uint64
	p := n - 1
	for i := k; i >= 1; i-- {
		for binom(p, i) > r {
			p--
		}
		mask |= 1 << uint(p)
		r -= binom(p, i)
		p--
	}
	return mask
}

// combinationInto writes the colex-rank-r k-combination of {0..n-1} into s.
func combinationInto(s *bitset.Set, n, k int, r uint64) {
	s.Clear()
	p := n - 1
	for i := k; i >= 1; i-- {
		for binom(p, i) > r {
			p--
		}
		s.Add(p)
		r -= binom(p, i)
		p--
	}
}

// gosperNext returns the next mask with the same popcount in increasing
// numeric order (Gosper's hack). The caller guarantees a successor exists.
func gosperNext(x uint64) uint64 {
	u := x & (^x + 1)
	v := x + u
	return v | ((x ^ v) / u >> 2)
}

// run evaluates every set of the chunk. The colex walk visits masks in
// increasing numeric order, so keeping the first strict improvement keeps
// the numerically smallest minimizer.
func (kn *smallKernel) run(c chunk) chunkBest {
	best := chunkBest{}
	S := combinationMask(len(kn.masks), c.k, c.start)
	for i := uint64(0); ; {
		best.sets++
		if num, inner := kn.eval(S); !best.found || num < best.num {
			best.found, best.num, best.set, best.inner = true, num, S, inner
		}
		if i++; i >= c.count {
			return best
		}
		S = gosperNext(S)
	}
}

// run is smallKernel.run on bitsets, for any n.
func (kn *bigKernel) run(c chunk) chunkBest {
	n := len(kn.adj)
	S := bitset.New(n)
	combinationInto(S, n, c.k, c.start)
	sc := newBigScratch(n)
	best := chunkBest{}
	for i := uint64(0); ; {
		best.sets++
		sc.members = S.AppendIndices(sc.members[:0])
		if num, innerSub := kn.eval(S, sc); !best.found || num < best.num {
			best.found, best.num = true, num
			best.setBig = S.Clone()
			best.innerBig = nil
			if innerSub != 0 {
				best.innerBig = bitset.New(n)
				expandSubInto(best.innerBig, innerSub, sc.members)
			}
		}
		if i++; i >= c.count || !S.NextCombination() {
			return best
		}
	}
}

// oracleMerge runs the chunks one after another and merges their bests per
// cardinality with the engine's tie-break, then across cardinalities with
// engineOut.aggregate — the merge the search applies to its subproblems.
func oracleMerge(n, maxK int, chunks []chunk, run func(chunk) chunkBest) Result {
	out := &engineOut{n: n, maxK: maxK, kernel: "oracle", perK: make([]chunkBest, maxK+1)}
	for _, c := range chunks {
		r := run(c)
		out.sets += r.sets
		bst := &out.perK[c.k]
		if r.found && (!bst.found || r.num < bst.num || (r.num == bst.num && witnessLess(&r, bst))) {
			*bst = r
		}
	}
	return out.aggregate()
}

// oracleExact is the oracle's answer for obj over sets of size 1..maxK,
// cut into chunks for `pieces` and walked with the bitset evaluator when
// big is set (or n > 64), else with the uint64 one.
func oracleExact(g *graph.Graph, obj Objective, maxK, pieces int, big bool) Result {
	chunks := makeChunks(g.N(), maxK, obj, pieces)
	if big || g.N() > 64 {
		return oracleMerge(g.N(), maxK, chunks, newBigKernel(g, obj).run)
	}
	return oracleMerge(g.N(), maxK, chunks, newSmallKernel(g, obj).run)
}

// bipRecomputeRun is the bipartite oracle's chunk walk: a full CoverSet
// recomputation per set, in colex order.
func bipRecomputeRun(b *graph.Bipartite) func(chunk) chunkBest {
	return func(c chunk) chunkBest {
		S := bitset.New(b.NS())
		combinationInto(S, b.NS(), c.k, c.start)
		var members []int
		scratch := make([]int8, b.NN())
		best := chunkBest{}
		for i := uint64(0); ; {
			best.sets++
			members = S.AppendIndices(members[:0])
			if num := b.CoverSet(members, scratch); !best.found || num < best.num {
				best.found, best.num, best.setBig = true, num, S.Clone()
			}
			if i++; i >= c.count || !S.NextCombination() {
				return best
			}
		}
	}
}

// oracleBipartite is the oracle's bipartite expansion over subsets of size
// 1..maxK of the S side.
func oracleBipartite(b *graph.Bipartite, maxK int) BipartiteResult {
	return bipartiteResult(oracleMerge(b.NS(), maxK, makeChunks(b.NS(), maxK, ObjOrdinary, 1), bipRecomputeRun(b)))
}
