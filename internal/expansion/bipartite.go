package expansion

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"wexp/internal/bitset"
	"wexp/internal/graph"
)

// BipartiteResult reports an exact bipartite measurement with its witness
// subset. ArgSet is a bitmask over the S side, populated when |S| ≤ 64;
// Witness is populated for every |S|. Pruned/Visited/SubtreesPruned mirror
// the graph engine's search statistics (zero on the Gray-code path) and
// are deterministic at every worker count.
type BipartiteResult struct {
	Value          float64
	ArgSet         uint64
	Witness        *bitset.Set
	Sets           int
	Pruned         int64
	Visited        int64
	SubtreesPruned int64
}

// MinBipartiteExpansion computes min over nonempty S' ⊆ S of
// |Γ(S')| / |S'| — the bipartite vertex expansion of Section 2.1, the
// quantity lower-bounded by Lemma 4.4(4) for the core graph — under the
// default work budget.
func MinBipartiteExpansion(b *graph.Bipartite) (BipartiteResult, error) {
	return MinBipartiteExpansionOpts(b, Options{})
}

// MinBipartiteExpansionOpts is MinBipartiteExpansion with an explicit work
// budget, pool width, context, and optional subset-size cap (Options.MaxK;
// 0 means all sizes). Two regimes:
//
//   - |S| ≤ 62, no size cap, and the 2^|S| Gray-code walk fits the budget:
//     all subsets are visited in Gray order, maintaining per-N-vertex
//     coverage counts incrementally — O(2^|S| · avg-deg) total, one unit of
//     work per set; the first minimizer in Gray order is the witness.
//   - otherwise: the branch-and-bound search of bnb.go, pruning subtrees
//     whose coverage |Γ(P)| — monotone under adding S-side vertices —
//     already exceeds the incumbent ratio; aborts with an ErrBudget-wrapped
//     error only when the search itself exhausts the budget.
func MinBipartiteExpansionOpts(b *graph.Bipartite, opt Options) (BipartiteResult, error) {
	s := b.NS()
	if s == 0 {
		return BipartiteResult{}, fmt.Errorf("expansion: empty S side")
	}
	budget := opt.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	maxK := opt.MaxK
	if maxK <= 0 || maxK > s {
		maxK = s
	}
	if s <= 62 && maxK == s && uint64(1)<<uint(s) <= budget {
		return grayBipartite(opt.Ctx, b)
	}
	out, err := newBipSearch(b, maxK, opt, budget).solve()
	if err != nil {
		return BipartiteResult{}, err
	}
	res := out.aggregate()
	if res.Witness == nil {
		return BipartiteResult{}, fmt.Errorf("expansion: no nonempty subset enumerated")
	}
	return bipartiteResult(res), nil
}

// bipartiteResult carries a search Result's answer and counters into a
// BipartiteResult.
func bipartiteResult(res Result) BipartiteResult {
	return BipartiteResult{Value: res.Value, ArgSet: res.ArgSet, Witness: res.Witness, Sets: res.Sets,
		Pruned: res.Pruned, Visited: res.Visited, SubtreesPruned: res.SubtreesPruned}
}

// grayBipartite is the incremental Gray-code walk over all nonempty
// subsets of the S side (|S| ≤ 62). It looks at ctx on its first step and
// every 2^16 steps after.
func grayBipartite(ctx context.Context, b *graph.Bipartite) (BipartiteResult, error) {
	s := b.NS()
	counts := make([]int32, b.NN())
	inSet := make([]bool, s)
	covered := 0
	size := 0
	cur := uint64(0)
	best := BipartiteResult{Value: math.Inf(1)}
	total := uint64(1) << uint(s)
	for i := uint64(1); i < total; i++ {
		if i%(1<<16) == 1 && ctx != nil && ctx.Err() != nil {
			return BipartiteResult{}, ctx.Err()
		}
		flip := bits.TrailingZeros64(i)
		adding := !inSet[flip]
		inSet[flip] = adding
		if adding {
			cur |= 1 << uint(flip)
			size++
			for _, v := range b.NeighborsOfS(flip) {
				if counts[v] == 0 {
					covered++
				}
				counts[v]++
			}
		} else {
			cur &^= 1 << uint(flip)
			size--
			for _, v := range b.NeighborsOfS(flip) {
				counts[v]--
				if counts[v] == 0 {
					covered--
				}
			}
		}
		if size == 0 {
			continue
		}
		best.Sets++
		if ratio := float64(covered) / float64(size); ratio < best.Value {
			best.Value = ratio
			best.ArgSet = cur
		}
	}
	best.Witness = fromMask(s, best.ArgSet)
	return best, nil
}

// bipSearch is the bipartite problem of the search driver (bnb.go): the
// tree branches over the S side in global-ratio mode, the bound is the
// prefix coverage |Γ(P)| — monotone under adding S-side vertices, exact on
// prefixes — and the leaves keep the N-side coverage counts along
// revolving-door swaps.
type bipSearch struct {
	*bnbEngine
	b *graph.Bipartite
}

func newBipSearch(b *graph.Bipartite, maxK int, opt Options, budget uint64) *bipSearch {
	s := b.NS()
	e := &bipSearch{b: b}
	e.bnbEngine = newBnbEngine(s, maxK, false, budget, opt.Workers, opt.Ctx, e)
	e.what = fmt.Sprintf("bipartite branch-and-bound on |S|=%d (|S'| ≤ %d)", s, maxK)
	e.hint = "raise Options.Budget or set Options.MaxK"
	e.prefixBound = true
	e.pool.New = func() any {
		return &bnbArena{
			rd:   &bitset.RevolvingDoor{},
			outs: make([]int, swapBatch),
			ins:  make([]int, swapBatch),
			cnt:  make([]int32, b.NN()),
			nbr:  bitset.New(b.NN()),
			S:    bitset.New(s),
		}
	}
	return e
}

// seedPass evaluates the prefixes of the degree-ascending S-side order —
// the cheapest deterministic guess at low-coverage subsets — to give every
// subproblem an incumbent before the search starts.
func (e *bipSearch) seedPass() error {
	order := make([]int, e.n)
	for u := range order {
		order[u] = u
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := e.b.DegS(order[i]), e.b.DegS(order[j])
		return di < dj || (di == dj && order[i] < order[j])
	})
	cnt := make([]int32, e.b.NN())
	covered := 0
	for k := 1; k <= e.maxK; k++ {
		if !e.meter.charge(1) {
			return e.budgetErr()
		}
		for _, v := range e.b.NeighborsOfS(order[k-1]) {
			if cnt[v] == 0 {
				covered++
			}
			cnt[v]++
		}
		e.recordSeed(covered, k)
	}
	return nil
}

// bound returns |Γ(P)| — every completion of the prefix covers at least
// what the prefix already covers.
func (e *bipSearch) bound(ar *bnbArena, members []int32, t, k, r int) int {
	cover := ar.nbr
	cover.Clear()
	for _, u := range members {
		for _, v := range e.b.NeighborsOfS(int(u)) {
			cover.Add(int(v))
		}
	}
	return cover.Count()
}

// leaf enumerates every completion in revolving-door order over the tail,
// with the prefix coverage preloaded into the count array: counts[v] is
// the number of chosen S-side vertices adjacent to N-side vertex v, and
// the covered total |Γ(S')| moves only along the swapped vertices' rows.
func (e *bipSearch) leaf(best *chunkBest, ar *bnbArena, members []int32, t, k, r int) error {
	m := e.n - t
	count := binom(m, r)
	if !e.meter.charge(count) {
		return e.budgetErr()
	}
	cnt := ar.cnt
	clear(cnt)
	S := ar.S
	S.Clear()
	covered := 0
	addVertex := func(u int) {
		S.Add(u)
		for _, v := range e.b.NeighborsOfS(u) {
			if cnt[v] == 0 {
				covered++
			}
			cnt[v]++
		}
	}
	for _, u := range members {
		addVertex(int(u))
	}
	rd := ar.rd
	rd.Reset(m, r, 0)
	for _, u := range rd.Members() {
		addVertex(u + t)
	}
	consider := func() {
		if !best.found || covered < best.num ||
			(covered == best.num && S.Compare(best.setBig) < 0) {
			best.found = true
			best.num = covered
			if best.setBig == nil {
				best.setBig = bitset.New(e.n)
			}
			best.setBig.Copy(S)
		}
	}
	best.sets++
	consider()
	for done := uint64(1); done < count; {
		want := count - done
		if want > swapBatch {
			want = swapBatch
		}
		bm := rd.NextBatch(ar.outs[:want], ar.ins[:want])
		if bm == 0 {
			break
		}
		for i := 0; i < bm; i++ {
			out, in := ar.outs[i]+t, ar.ins[i]+t
			for _, v := range e.b.NeighborsOfS(out) {
				cnt[v]--
				if cnt[v] == 0 {
					covered--
				}
			}
			for _, v := range e.b.NeighborsOfS(in) {
				if cnt[v] == 0 {
					covered++
				}
				cnt[v]++
			}
			S.Remove(out)
			S.Add(in)
			best.sets++
			consider()
		}
		done += uint64(bm)
	}
	return nil
}

// SizeProfile is the per-size expansion profile of a graph: Profile[k]
// (1-indexed by set size) is the minimum objective ratio over sets of size
// exactly k. ArgSets holds uint64 witnesses (n ≤ 64 only); Witnesses holds
// them for every n.
type SizeProfile struct {
	MinExpansion []float64 // index 0 unused
	ArgSets      []uint64
	Witnesses    []*bitset.Set
}

// OrdinaryProfile computes the exact per-size expansion profile up to sets
// of size maxK under the default work budget. The overall β for
// α = maxK/n is the minimum over the profile — the profile additionally
// shows *where* the bottleneck sits, which the paper's α-parameterized
// definition quantifies over.
func OrdinaryProfile(g *graph.Graph, maxK int) (*SizeProfile, error) {
	return Profile(g, ObjOrdinary, maxK, Options{})
}

// Beta returns the aggregate β over the profile: the minimum across sizes.
func (p *SizeProfile) Beta() float64 {
	best := math.Inf(1)
	for k := 1; k < len(p.MinExpansion); k++ {
		if p.MinExpansion[k] < best {
			best = p.MinExpansion[k]
		}
	}
	return best
}

// EdgeExpansion computes the exact edge expansion (Cheeger constant)
// h(G) = min over 0 < |S| ≤ n/2 of |e(S, S̄)| / |S|, under the default
// work budget, via the engine's branch-and-bound search (ObjEdge). Used
// to sanity-check the spectral machinery: for d-regular graphs the
// discrete Cheeger inequality gives (d−λ2)/2 ≤ h(G) ≤ sqrt(2d(d−λ2)).
func EdgeExpansion(g *graph.Graph) (BipartiteResult, error) {
	return EdgeExpansionOpts(g, Options{})
}

// EdgeExpansionOpts is EdgeExpansion with an explicit work budget, pool
// width and context; the result carries the search counters of Exact.
func EdgeExpansionOpts(g *graph.Graph, opt Options) (BipartiteResult, error) {
	n := g.N()
	if n < 2 {
		return BipartiteResult{}, fmt.Errorf("expansion: need n >= 2")
	}
	opt.MaxK = n / 2
	opt.Alpha = 0
	res, err := Exact(g, ObjEdge, opt)
	if err != nil {
		return BipartiteResult{}, err
	}
	return bipartiteResult(res), nil
}

// CheegerBounds returns the discrete Cheeger bracket
// [(d−λ2)/2, sqrt(2d(d−λ2))] for a d-regular graph with second eigenvalue
// lambda2.
func CheegerBounds(d int, lambda2 float64) (lo, hi float64) {
	gap := float64(d) - lambda2
	if gap < 0 {
		gap = 0
	}
	return gap / 2, math.Sqrt(2 * float64(d) * gap)
}
