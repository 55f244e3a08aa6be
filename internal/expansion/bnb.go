package expansion

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"wexp/internal/bitset"
)

// Branch-and-bound search tree with deterministic frontier partitioning.
//
// The exact path does not walk every k-subset: it searches the
// prefix-decision tree whose node (k, t, P) stands for all k-sets S with
// S ∩ [0,t) = P, branching on whether vertex t joins S. Subtrees whose
// objective lower bound exceeds the incumbent are cut without being
// visited, which is what moves the exact frontier past the Σ C(n,k)
// enumeration wall.
//
// Determinism contract (the Bobpp-style partition): the tree is split at a
// fixed depth d(n,k) — a function of the instance only, never of the
// worker count — into one subproblem per feasible prefix class, and
// subproblems are solved independently:
//
//   - each subproblem runs serially, best-first (min-heap on the bound
//     with an insertion-sequence tie-break), pruning only against the
//     deterministic seed incumbent and its own local best — never against
//     a cross-worker shared incumbent;
//   - workers pull whole subproblems from an atomic cursor, and results
//     are merged in subproblem-index order with the engine's usual
//     smallest-witness tie-break.
//
// Every counter (Sets, Pruned, Visited, SubtreesPruned) is therefore a sum
// of per-subproblem deterministic quantities: bit-identical at any worker
// count, not just the Value/ArgSet/witnesses.
//
// Soundness of the merge: pruning is strict (a subtree dies only when its
// bound is strictly worse than an incumbent), so every set attaining the
// minimum — for its cardinality in per-k mode, globally in ratio mode —
// is visited, and the merged witness equals the full enumeration's
// numerically smallest minimizer bit-for-bit.
//
// One driver serves two problems. bnbEngine owns the partition, the node
// order, the pruning rule, the work meter, the worker pool and the merge;
// a bnbProblem supplies only its seed pass, its lower bound and its leaf
// evaluator. The graph objectives β, βu, βw and edge (graphSearch,
// leaves.go) and the bipartite vertex expansion (bipSearch, bipartite.go)
// are the two problems. Once a subtree's completion count C(n−t, r) fits
// leafCap, the leaf evaluates all its sets in revolving-door order over
// the tail with the prefix state preloaded. The serial, non-pruning oracle
// the search is checked against lives in oracle_test.go.

// ErrBudget reports that a solver ran out of work budget. The search's
// cost depends on how well the bounds prune, so it charges work as it goes
// and aborts when the meter blows; the randomized tier prices its plan up
// front and refuses before starting. Success or failure is deterministic
// either way: the search's total charge is a sum of per-subproblem
// deterministic quantities, so whether it exceeds the budget cannot depend
// on scheduling. Callers distinguish the refusal with
// errors.Is(err, ErrBudget) and can retry with a larger Options.Budget.
var ErrBudget = errors.New("work budget exceeded")

const (
	// leafCap is the largest completion count C(n−t, r) evaluated as one
	// revolving-door leaf batch instead of being branched further.
	leafCap = 2048
	// swapBatch is how many revolving-door swaps a counting leaf pulls per
	// NextBatch call, amortizing the enumerator's call overhead.
	swapBatch = 256
	// bnbSubTarget is the aimed-for number of prefix-class subproblems per
	// cardinality — enough to load-balance any sane worker count while
	// keeping per-subproblem overhead negligible.
	bnbSubTarget = 192
	// bnbMaxDepth caps the split depth (2^depth classes are enumerated).
	bnbMaxDepth = 12
)

// workMeter is the shared work-budget accountant. Charges are per-leaf and
// per-expansion; the final total is scheduling-independent, so blowing the
// meter is a deterministic event even though the abort point inside a
// failing run is not (failing runs return ErrBudget and no counters).
type workMeter struct {
	used   atomic.Uint64
	blown  atomic.Bool
	budget uint64
}

func (m *workMeter) charge(w uint64) bool {
	if m.blown.Load() {
		return false
	}
	got := m.used.Add(w)
	if got < w || got > m.budget { // overflow or over budget
		m.blown.Store(true)
		return false
	}
	return true
}

// subproblem is one fixed-shape piece of the frontier: every k-set whose
// restriction to [0, depth) equals prefix. The list of subproblems is a
// pure function of (n, maxK) — never of workers or scheduling.
type subproblem struct {
	k      int
	depth  int
	prefix uint64 // members among [0, depth); depth ≤ bnbMaxDepth ≤ 64
}

// bnbClassCount returns the number of feasible prefix classes at depth d
// for cardinality k on n vertices.
func bnbClassCount(n, k, d int) uint64 {
	var c uint64
	for j := 0; j <= d && j <= k; j++ {
		if k-j <= n-d {
			c += binom(d, j)
		}
	}
	return c
}

// bnbDepth picks the split depth for cardinality k: deep enough to yield
// min(bnbSubTarget, C(n,k)/leafCap+1) subproblems, so tiny instances take
// a single-subproblem fast path and large ones balance any pool width.
func bnbDepth(n, k int) int {
	want := binom(n, k)/leafCap + 1
	if want > bnbSubTarget {
		want = bnbSubTarget
	}
	for d := 0; ; d++ {
		if d >= bnbMaxDepth || d >= n {
			return d
		}
		if bnbClassCount(n, k, d) >= want {
			return d
		}
	}
}

// bnbSubproblems materializes the deterministic subproblem list: for each
// cardinality in order, every feasible prefix class in increasing numeric
// mask order.
func bnbSubproblems(n, maxK int) []subproblem {
	var subs []subproblem
	for k := 1; k <= maxK; k++ {
		d := bnbDepth(n, k)
		for p := uint64(0); p < uint64(1)<<uint(d); p++ {
			j := bits.OnesCount64(p)
			if j <= k && k-j <= n-d {
				subs = append(subs, subproblem{k: k, depth: d, prefix: p})
			}
		}
	}
	return subs
}

// bnbNode is one open node of a subproblem's search: the k-sets S with
// S ∩ [0,t) = members, |S| = k (r = k − len(members) still to pick from
// [t,n)). members is immutable once pushed; exclude-children alias their
// parent's slice.
type bnbNode struct {
	bound   int32
	seq     int32 // insertion sequence — the deterministic heap tie-break
	t, r    int32
	members []int32
}

// nodeHeap is a binary min-heap on (bound, seq).
type nodeHeap []bnbNode

func nodeLess(a, b *bnbNode) bool {
	return a.bound < b.bound || (a.bound == b.bound && a.seq < b.seq)
}

func (h *nodeHeap) push(nd bnbNode) {
	*h = append(*h, nd)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !nodeLess(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *nodeHeap) pop() bnbNode {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = bnbNode{} // release the members slice
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && nodeLess(&s[l], &s[m]) {
			m = l
		}
		if r < len(s) && nodeLess(&s[r], &s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// satInt64 clamps a saturating uint64 count into int64 range.
func satInt64(u uint64) int64 {
	if u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

// addSat64 adds non-negative counts, saturating at MaxInt64 (C(120,60)
// alone overflows int64, so pruned-set counts must clamp).
func addSat64(a, b int64) int64 {
	s := a + b
	if s < a {
		return math.MaxInt64
	}
	return s
}

func lowMask(t int) uint64 {
	if t >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(t) - 1
}

// bnbArena is the pooled per-worker scratch of the search. Each problem
// sizes the fields its bound and leaves use and leaves the rest nil.
type bnbArena struct {
	rd       *bitset.RevolvingDoor
	heap     nodeHeap
	outs     []int
	ins      []int
	degCount []int32
	cnt      []int32     // per-vertex coverage multiplicity
	S        *bitset.Set // the leaf's current set
	nbr      *bitset.Set // the bound's neighborhood of the prefix
	pset     *bitset.Set
	sc       *bigScratch
	members  []int
	best     chunkBest // the running best of the subproblem being solved
}

// bnbProblem is what one problem supplies to the shared driver.
type bnbProblem interface {
	// seedPass evaluates a deterministic family of sets and records them
	// as incumbents (recordSeed) before the search starts.
	seedPass() error
	// bound returns a sound lower bound on the numerator of every
	// completion of the prefix: members ⊆ [0,t) chosen, the rest of [0,t)
	// excluded, r more members to come from [t,n).
	bound(ar *bnbArena, members []int32, t, k, r int) int
	// leaf evaluates all C(n−t, r) completions of the prefix into best.
	leaf(best *chunkBest, ar *bnbArena, members []int32, t, k, r int) error
}

// bnbEngine is the search driver: the immutable per-solve state shared by
// all workers, plus the seed incumbents and the work meter.
type bnbEngine struct {
	n       int // the universe the tree branches over: vertices, or the S side
	maxK    int
	perK    bool
	budget  uint64
	workers int
	ctx     context.Context
	what    string // names the search in budget errors
	hint    string
	prob    bnbProblem
	// prefixBound reports that prob's bound depends on the chosen members
	// only, so an exclude child keeps its parent's bound.
	prefixBound bool

	meter workMeter

	// Deterministic incumbents from the seed pass. seedNumK[k] is the best
	// numerator seen for cardinality k (math.MaxInt = none); seedNum/seedK
	// is the best ratio (seedK = 0 = none).
	seedNumK []int
	seedNum  int
	seedK    int
	seedSets int

	pool sync.Pool // *bnbArena
}

func newBnbEngine(n, maxK int, perK bool, budget uint64, workers int, ctx context.Context, prob bnbProblem) *bnbEngine {
	e := &bnbEngine{n: n, maxK: maxK, perK: perK, budget: budget, workers: workers, ctx: ctx, prob: prob}
	e.seedNumK = make([]int, maxK+1)
	for k := range e.seedNumK {
		e.seedNumK[k] = math.MaxInt
	}
	e.meter.budget = budget
	return e
}

func (e *bnbEngine) budgetErr() error {
	return fmt.Errorf("expansion: %s: %w (budget %d); %s", e.what, ErrBudget, e.budget, e.hint)
}

// recordSeed folds one evaluated seed set into the deterministic
// incumbents.
func (e *bnbEngine) recordSeed(num, k int) {
	e.seedSets++
	if num < e.seedNumK[k] {
		e.seedNumK[k] = num
	}
	if e.seedK == 0 || int64(num)*int64(e.seedK) < int64(e.seedNum)*int64(k) {
		e.seedNum, e.seedK = num, k
	}
}

// prunable reports whether a lower bound b for sets of cardinality k is
// strictly beaten by an incumbent: the subproblem's local best (same k —
// direct comparison) or the seed incumbent (per-k numerator in per-k
// mode, exact cross-multiplied ratio in global mode). Strictness is what
// keeps every minimizer visited and the merged witness bit-identical to
// the full enumeration.
func (e *bnbEngine) prunable(b, k int, localFound bool, localNum int) bool {
	if localFound && b > localNum {
		return true
	}
	if e.perK {
		return e.seedNumK[k] != math.MaxInt && b > e.seedNumK[k]
	}
	return e.seedK != 0 && int64(b)*int64(e.seedK) > int64(e.seedNum)*int64(k)
}

// runSub solves one subproblem to completion: best-first over its part of
// the prefix tree, leaves evaluated by the problem, all counters
// deterministic. Returns the subproblem's chunkBest (with visited/subtrees
// statistics folded in). The running best lives in the worker's arena: a
// local would move to the heap, since the leaf takes its address through
// an interface call, and a slot in the shared results slice would put two
// workers' hot counters on one cache line.
func (e *bnbEngine) runSub(sp subproblem, ar *bnbArena) (chunkBest, error) {
	best := &ar.best
	*best = chunkBest{}
	k := sp.k
	h := ar.heap[:0]
	defer func() { ar.heap = h[:0] }()
	seq := int32(0)
	push := func(members []int32, t, r, b int) {
		if e.prunable(b, k, best.found, best.num) {
			best.pruned = addSat64(best.pruned, satInt64(binom(e.n-t, r)))
			best.subtrees++
			return
		}
		h.push(bnbNode{bound: int32(b), seq: seq, t: int32(t), r: int32(r), members: members})
		seq++
	}

	root := make([]int32, 0, bits.OnesCount64(sp.prefix))
	for rest := sp.prefix; rest != 0; rest &= rest - 1 {
		root = append(root, int32(bits.TrailingZeros64(rest)))
	}
	push(root, sp.depth, k-len(root), e.prob.bound(ar, root, sp.depth, k, k-len(root)))

	for len(h) > 0 {
		if e.ctx != nil && e.ctx.Err() != nil {
			return *best, e.ctx.Err()
		}
		if e.meter.blown.Load() {
			return *best, e.budgetErr()
		}
		nd := h.pop()
		if e.prunable(int(nd.bound), k, best.found, best.num) {
			// The heap is bound-ordered and the incumbent only improves:
			// once the minimum is prunable, everything left is.
			best.pruned = addSat64(best.pruned, satInt64(binom(e.n-int(nd.t), int(nd.r))))
			best.subtrees++
			for i := range h {
				best.pruned = addSat64(best.pruned, satInt64(binom(e.n-int(h[i].t), int(h[i].r))))
				best.subtrees++
			}
			h = h[:0]
			break
		}
		if !e.meter.charge(1) {
			return *best, e.budgetErr()
		}
		best.visited++
		t, r := int(nd.t), int(nd.r)
		if r == 0 || binom(e.n-t, r) <= leafCap {
			if err := e.prob.leaf(best, ar, nd.members, t, k, r); err != nil {
				return *best, err
			}
			continue
		}
		// Branch on vertex t. Exclude first (shares the members slice),
		// include second; push order is fixed, so seq — and the heap's
		// tie-break — is deterministic.
		exc := int(nd.bound)
		if !e.prefixBound {
			exc = e.prob.bound(ar, nd.members, t+1, k, r)
		}
		push(nd.members, t+1, r, exc)
		inc := make([]int32, len(nd.members)+1)
		copy(inc, nd.members)
		inc[len(nd.members)] = int32(t)
		push(inc, t+1, r-1, e.prob.bound(ar, inc, t+1, k, r-1))
	}
	return *best, nil
}

// solve runs the full search: the problem's seed pass, the deterministic
// subproblem partition, the worker pool, and the merge in subproblem-index
// order into per-cardinality bests.
func (e *bnbEngine) solve() (*engineOut, error) {
	if err := e.prob.seedPass(); err != nil {
		return nil, err
	}
	subs := bnbSubproblems(e.n, e.maxK)
	results := make([]chunkBest, len(subs))
	workers := e.workers
	if workers <= 0 {
		workers = poolWidth()
	}
	err := runPool(e.ctx, len(subs), workers, func(i int) error {
		ar := e.pool.Get().(*bnbArena)
		defer e.pool.Put(ar)
		var err error
		results[i], err = e.runSub(subs[i], ar)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &engineOut{n: e.n, maxK: e.maxK, perK: make([]chunkBest, e.maxK+1), sets: e.seedSets}
	for i := range results {
		r := &results[i]
		out.sets += r.sets
		out.prun = addSat64(out.prun, r.pruned)
		out.visited += r.visited
		out.subtrees += r.subtrees
		if !r.found {
			continue
		}
		k := subs[i].k
		bst := &out.perK[k]
		if !bst.found || r.num < bst.num ||
			(r.num == bst.num && witnessLess(r, bst)) {
			out.perK[k] = *r
			out.perK[k].sets, out.perK[k].pruned = 0, 0
			out.perK[k].visited, out.perK[k].subtrees = 0, 0
		}
	}
	return out, nil
}
