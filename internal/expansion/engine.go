package expansion

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"wexp/internal/bitset"
	"wexp/internal/graph"
	"wexp/internal/runopts"
)

// Objective selects which quantity the exact engine minimizes over vertex
// sets S.
type Objective int

const (
	// ObjOrdinary is β: |Γ⁻(S)| / |S|.
	ObjOrdinary Objective = iota
	// ObjUnique is βu: |Γ¹(S)| / |S|.
	ObjUnique
	// ObjWireless is βw: max over S' ⊆ S of |Γ¹_S(S')| / |S|.
	ObjWireless
	// ObjEdge is the Cheeger constant numerator: |e(S, S̄)| / |S|.
	ObjEdge
)

func (o Objective) String() string {
	switch o {
	case ObjOrdinary:
		return "ordinary"
	case ObjUnique:
		return "unique"
	case ObjWireless:
		return "wireless"
	case ObjEdge:
		return "edge"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// DefaultBudget is the work-unit budget used when Options.Budget is zero.
// One unit is one candidate set for β/βu/edge and 2^|S| submask evaluations
// for βw, so the default covers the legacy hard limits (n ≤ 20 for β/βu,
// n ≤ 16 for βw) with headroom.
const DefaultBudget = 1 << 26

// Options configures an exact expansion computation. The zero value of
// every field selects a sensible default, except that exactly one of Alpha
// and MaxK must be positive.
//
// The common run-control knobs are the embedded runopts.RunOpts: Workers
// is the pool width (results and search counters are bit-identical for
// every width — the search is split into fixed-shape subproblems merged in
// index order with a smallest-witness tie-break); Budget bounds the total
// work in enumeration units (see DefaultBudget) — the branch-and-bound
// search charges as it goes and aborts with an ErrBudget-wrapped error;
// Seed is ignored (the engine is fully deterministic).
type Options struct {
	runopts.RunOpts

	// Alpha is the paper's size parameter: sets with 0 < |S| ≤ α·n are
	// enumerated. Ignored when MaxK > 0.
	Alpha float64
	// MaxK, when positive, caps |S| directly instead of via Alpha.
	MaxK int
	// Ctx, when non-nil, cancels the search: workers observe it between
	// subproblems and tree nodes, and the solve returns Ctx.Err(). A nil
	// Ctx means run to completion.
	Ctx context.Context

	// forceBig routes graphs with n ≤ 64 through the large-n bitset
	// representation; a test hook for cross-validating the two paths.
	forceBig bool
}

// chunkBest is the best set one subproblem (or one test-oracle chunk)
// found, with its counters. Exactly one of set/setBig (and inner/innerBig)
// is meaningful, depending on the representation.
type chunkBest struct {
	found    bool
	num      int // objective numerator; the value is num / k
	set      uint64
	setBig   *bitset.Set
	inner    uint64
	innerBig *bitset.Set
	sets     int
	pruned   int64
	visited  int64 // search-tree nodes expanded
	subtrees int64 // whole subtrees cut without a visit
}

// engineOut is the raw per-cardinality outcome of a solve: perK[k] holds
// the best set of size exactly k (subproblems already merged in index
// order).
type engineOut struct {
	n        int
	maxK     int
	kernel   string
	perK     []chunkBest
	sets     int
	prun     int64
	visited  int64
	subtrees int64
}

// binom returns C(n, k), saturating at MaxUint64 on overflow — the shared
// implementation lives next to the revolving-door enumerator whose rank
// bijection depends on it.
func binom(n, k int) uint64 {
	return bitset.Binomial(n, k)
}

// setCost is the work-unit price of evaluating one set of size k.
func setCost(obj Objective, k int) uint64 {
	if obj == ObjWireless {
		if k >= 62 {
			return math.MaxUint64
		}
		return 1 << uint(k)
	}
	return 1
}

// enumWork returns the total work units of the full enumeration, saturating.
func enumWork(n, maxK int, obj Objective) uint64 {
	var total uint64
	for k := 1; k <= maxK; k++ {
		hi, lo := bits.Mul64(binom(n, k), setCost(obj, k))
		if hi != 0 || total+lo < total {
			return math.MaxUint64
		}
		total += lo
	}
	return total
}

// Feasible reports whether the exact engine would accept an enumeration of
// sets up to size maxK on n vertices under the given budget (0 means
// DefaultBudget). Callers use it to decide between the exact solvers and
// the sampling estimators.
func Feasible(n, maxK int, obj Objective, budget uint64) bool {
	if budget == 0 {
		budget = DefaultBudget
	}
	if maxK < 1 || maxK > n {
		return false
	}
	return enumWork(n, maxK, obj) <= budget
}

// poolWidth is the default worker-pool width.
func poolWidth() int {
	if w := runtime.GOMAXPROCS(0); w > 1 {
		return w
	}
	return 1
}

// runPool runs task(0), …, task(tasks−1) over `workers` goroutines pulling
// indices from an atomic cursor — the one worker pool of the exact search
// and the randomized tier. Tasks write their output by index, so the
// scheduling order is invisible to the caller's merge. The pool stops
// early on cancellation, returning ctx.Err(), or on the first task error,
// returning it (partial output is discarded by the caller).
func runPool(ctx context.Context, tasks, workers int, task func(i int) error) error {
	var (
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	stopped := func() bool { return failed.Load() || (ctx != nil && ctx.Err() != nil) }
	run := func(i int) {
		if err := task(i); err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			failed.Store(true)
		}
	}
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for i := 0; i < tasks && !stopped(); i++ {
			run(i)
		}
	} else {
		var cursor atomic.Int64
		cursor.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stopped() {
					i := int(cursor.Add(1))
					if i >= tasks {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return firstErr
}

// witnessLess orders two found chunkBests by their witness set's numeric
// value — the tie-break that reproduces the legacy serial scan (which kept
// the numerically smallest mask among all minimizers).
func witnessLess(a, b *chunkBest) bool {
	if a.setBig != nil {
		return a.setBig.Compare(b.setBig) < 0
	}
	return a.set < b.set
}

// solve validates the size cap and runs the branch-and-bound search
// (bnb.go). perKBests selects per-cardinality incumbents for the search
// (Profile needs the exact best at every k) over the stronger global-ratio
// incumbent (Exact only needs the overall minimum).
func solve(g *graph.Graph, obj Objective, maxK int, opt Options, perKBests bool) (*engineOut, error) {
	n := g.N()
	if maxK < 1 || maxK > n {
		return nil, fmt.Errorf("expansion: size cap %d out of range [1,%d]", maxK, n)
	}
	budget := opt.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	gs := newGraphSearch(g, obj, maxK, opt, budget, perKBests)
	out, err := gs.solve()
	if err != nil {
		return nil, err
	}
	out.kernel = "big-bnb"
	if gs.small {
		out.kernel = "small-bnb"
	}
	return out, nil
}

// aggregate reduces the per-cardinality bests to a single Result, comparing
// the rationals num/k exactly by cross-multiplication and breaking ties by
// numerically smallest witness — reproducing the legacy serial scan
// bit-for-bit.
func (e *engineOut) aggregate() Result {
	res := Result{Value: math.Inf(1), Sets: e.sets, Pruned: e.prun,
		Visited: e.visited, SubtreesPruned: e.subtrees, Kernel: e.kernel}
	var best *chunkBest
	bestK := 0
	for k := 1; k <= e.maxK; k++ {
		c := &e.perK[k]
		if !c.found {
			continue
		}
		if best == nil ||
			int64(c.num)*int64(bestK) < int64(best.num)*int64(k) ||
			(int64(c.num)*int64(bestK) == int64(best.num)*int64(k) && witnessLess(c, best)) {
			best = c
			bestK = k
		}
	}
	if best == nil {
		res.Cert = Certificate{Kind: CertExact}
		return res
	}
	res.Value = float64(best.num) / float64(bestK)
	res.Cert = Certificate{Kind: CertExact, CILow: res.Value, CIHigh: res.Value}
	fillWitness(&res, best, e.n)
	return res
}

// fillWitness populates both witness representations of a Result from a
// chunkBest: the legacy uint64 masks whenever n ≤ 64, and the bitsets
// always.
func fillWitness(res *Result, c *chunkBest, n int) {
	if c.setBig != nil {
		res.Witness = c.setBig
		res.InnerWitness = c.innerBig
		if n <= 64 {
			res.ArgSet = toMask(c.setBig)
			if c.innerBig != nil {
				res.ArgInner = toMask(c.innerBig)
			}
		}
		return
	}
	res.ArgSet = c.set
	res.ArgInner = c.inner
	res.Witness = fromMask(n, c.set)
	if c.inner != 0 {
		res.InnerWitness = fromMask(n, c.inner)
	}
}

func toMask(s *bitset.Set) uint64 {
	var m uint64
	s.ForEach(func(i int) { m |= 1 << uint(i) })
	return m
}

func fromMask(n int, m uint64) *bitset.Set {
	s := bitset.New(n)
	for rest := m; rest != 0; rest &= rest - 1 {
		s.Add(bits.TrailingZeros64(rest))
	}
	return s
}

// --- Single-set evaluators ---------------------------------------------------
//
// smallKernel and bigKernel evaluate one candidate set from scratch. The
// search's seed pass and the randomized tier's trials call them; the
// search's leaves maintain the same numerators incrementally (leaves.go), and
// the test oracle (oracle_test.go) walks them over every set.

// smallKernel evaluates sets of a graph with n ≤ 64 from uint64 adjacency
// masks.
type smallKernel struct {
	masks []uint64
	obj   Objective
}

func newSmallKernel(g *graph.Graph, obj Objective) *smallKernel {
	return &smallKernel{masks: adjMasks(g), obj: obj}
}

func (kn *smallKernel) eval(S uint64) (num int, inner uint64) {
	switch kn.obj {
	case ObjOrdinary:
		var nbr uint64
		for rest := S; rest != 0; rest &= rest - 1 {
			nbr |= kn.masks[bits.TrailingZeros64(rest)]
		}
		return bits.OnesCount64(nbr &^ S), 0
	case ObjUnique:
		return bits.OnesCount64(uniqueMask(kn.masks, S)), 0
	case ObjWireless:
		return WirelessOfSet(kn.masks, S)
	case ObjEdge:
		cut := 0
		for rest := S; rest != 0; rest &= rest - 1 {
			cut += bits.OnesCount64(kn.masks[bits.TrailingZeros64(rest)] &^ S)
		}
		return cut, 0
	}
	panic("expansion: unknown objective")
}

// bigKernel evaluates sets of a graph of any size from bitset adjacency
// rows.
type bigKernel struct {
	adj []*bitset.Set
	obj Objective
}

func newBigKernel(g *graph.Graph, obj Objective) *bigKernel {
	n := g.N()
	adj := make([]*bitset.Set, n)
	for v := 0; v < n; v++ {
		adj[v] = bitset.New(n)
		for _, w := range g.Neighbors(v) {
			adj[v].Add(int(w))
		}
	}
	return &bigKernel{adj: adj, obj: obj}
}

// bigScratch is the per-caller scratch of a bigKernel evaluation: members
// holds the sorted members of the set being evaluated.
type bigScratch struct {
	members []int
	once    *bitset.Set
	twice   *bitset.Set
	tmp     *bitset.Set
}

func newBigScratch(n int) *bigScratch {
	return &bigScratch{once: bitset.New(n), twice: bitset.New(n), tmp: bitset.New(n)}
}

// eval returns the objective numerator for S and, for βw, the maximizing
// subset as a compressed mask over sc.members.
func (kn *bigKernel) eval(S *bitset.Set, sc *bigScratch) (num int, innerSub uint64) {
	switch kn.obj {
	case ObjOrdinary:
		sc.once.Clear()
		for _, v := range sc.members {
			sc.once.Union(kn.adj[v])
		}
		return sc.once.SubtractCount(S), 0
	case ObjUnique:
		// Iterate members directly: |S| may exceed 64, unlike the wireless
		// submask scan whose 2^|S| cost already bounds |S| via the budget.
		sc.once.Clear()
		sc.twice.Clear()
		for _, v := range sc.members {
			sc.tmp.Copy(sc.once)
			sc.tmp.Intersect(kn.adj[v])
			sc.twice.Union(sc.tmp)
			sc.once.Union(kn.adj[v])
		}
		sc.once.Subtract(sc.twice)
		return sc.once.SubtractCount(S), 0
	case ObjWireless:
		return wirelessScanBig(kn.adj, S, sc)
	case ObjEdge:
		cut := 0
		for _, v := range sc.members {
			cut += kn.adj[v].SubtractCount(S)
		}
		return cut, 0
	}
	panic("expansion: unknown objective")
}

// wirelessScanBig is the βw inner optimization shared by bigKernel.eval and
// the search's bitset leaves: max over S' ⊆ S of |Γ¹_S(S')| plus the
// maximizing subset as a compressed mask over sc.members. The submask
// order (descending) matches WirelessOfSet, so the first strict max — and
// hence the inner witness — matches the small kernel bit-for-bit on graphs
// both paths accept.
func wirelessScanBig(adj []*bitset.Set, S *bitset.Set, sc *bigScratch) (int, uint64) {
	full := full64(len(sc.members))
	bestInner, bestSub := 0, uint64(0)
	for sub := full; ; sub = (sub - 1) & full {
		if sub != 0 {
			uniqueInto(adj, sc, sub)
			sc.once.Subtract(sc.twice)
			if c := sc.once.SubtractCount(S); c > bestInner {
				bestInner = c
				bestSub = sub
			}
		}
		if sub == 0 {
			break
		}
	}
	return bestInner, bestSub
}

// uniqueInto computes once/twice coverage over the members selected by the
// compressed mask sub.
func uniqueInto(adj []*bitset.Set, sc *bigScratch, sub uint64) {
	sc.once.Clear()
	sc.twice.Clear()
	for rest := sub; rest != 0; rest &= rest - 1 {
		v := sc.members[bits.TrailingZeros64(rest)]
		sc.tmp.Copy(sc.once)
		sc.tmp.Intersect(adj[v])
		sc.twice.Union(sc.tmp)
		sc.once.Union(adj[v])
	}
}

func full64(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}
