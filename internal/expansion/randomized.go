package expansion

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"wexp/internal/bitset"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

// Randomized certified solver for the infeasible regime (tier two of the
// wexp fallback gate, between exact branch-and-bound and the crude
// estimators).
//
// The solver answers the decision problem "does a set S with |S| = k and
// objective ratio below θ exist?" with PPSZ-style randomized trials — a
// random vertex ordering walked once, with forced choices where a bound
// decides the vertex outright (the degree floor deg(v) − (k−1) ≥ θ·k
// force-excludes v for every objective except βu) and biased coin flips
// where it does not — and binary-searches θ to bracket the optimum:
//
//   - the upper end of the bracket is always witnessed by an exactly
//     evaluated set, so Value/CIHigh is a sound upper bound, certificate or
//     not;
//   - a NO answer at θ raises the lower end; its failure contribution is
//     (1 − p*)^T per sampled stratum, under the documented model that a
//     single trial finds a below-θ set, when one exists, with probability
//     at least p* = 1/4. The model is a heuristic — the walk is biased
//     toward low-coverage-increment vertices, the forced rules never
//     exclude a member of any below-θ set — and is validated differentially
//     against the exact oracle (every n ≤ 24 corpus instance and the fuzz
//     harness must agree bit-for-bit).
//
// Strata small enough to enumerate (C(n,k) ≤ randExhaustiveCutoff) are
// scanned exhaustively instead of being sampled — each is exactly one leaf
// of the exact search (bnb.go) — so their contribution to the failure
// probability is exactly zero; when every stratum is exhaustive the result
// is exact and says so.
// Before the search, a stratified sampling pass draws uniform k-sets per
// stratum through the revolving-door rank bijection (rank → set) and
// evaluates them exactly, seeding the bracket's upper end; the certificate
// it feeds is the explicit confidence statement {failure_prob, ci_low,
// ci_high, trials} carried on every Result.
//
// Determinism contract (same as the rest of the engine, plus randomness):
// every trial draws from its own RNG stream derived from
// Seed ⊕ Salt("expansion/randomized") ⊕ FNV-mix(phase, k, step, index) —
// never from a shared sequential source — and ALL planned trials always
// execute (no cross-trial early exit), with results merged in task-index
// order under the engine's cross-multiplied rational compare and
// smallest-witness tie-break. Results, certificates, and trial counts are
// therefore bit-identical at any Workers setting.
const (
	// randExhaustiveCutoff is the largest C(n,k) scanned exhaustively
	// instead of sampled: a stratum this small is one search leaf.
	randExhaustiveCutoff = leafCap
	// randTrialSuccess is p*: the modeled per-trial success probability at
	// a stratum containing a below-θ set (see the package comment above).
	randTrialSuccess = 0.25
	// defaultRandFailure is the failure-probability target when
	// RandOptions.TargetFailure is zero.
	defaultRandFailure = 1e-9
	// defaultRandSamples is the per-stratum sample count of the stratified
	// sampling pass when RandOptions.Samples is zero.
	defaultRandSamples = 192
	// defaultRandSteps caps the binary-search decision steps when
	// RandOptions.Steps is zero.
	defaultRandSteps = 24
	// randSampleChunk is the pool granularity of the sampling pass.
	randSampleChunk = 32
	// descentPasses / descentDraws bound the stochastic single-swap descent
	// every trial runs after its walk: per pass, each member tries up to
	// descentDraws random replacements and takes the first improvement.
	descentPasses = 2
	descentDraws  = 6
)

// RandOptions configures the randomized certified solver. The zero value of
// every field selects a sensible default, except that exactly one of Alpha
// and MaxK must be positive. Seed is live here (unlike the exact engine):
// the certificate is a deterministic function of (graph, objective,
// options) including the seed.
type RandOptions struct {
	runopts.RunOpts

	// Alpha is the paper's size parameter: sets with 0 < |S| ≤ α·n are
	// considered. Ignored when MaxK > 0.
	Alpha float64
	// MaxK, when positive, caps |S| directly instead of via Alpha.
	MaxK int
	// TargetFailure is the bound the certificate's FailureProb must not
	// exceed (default 1e-9). The per-decision trial count is sized so the
	// worst case — every step answering NO in every sampled stratum —
	// stays under it.
	TargetFailure float64
	// Samples is the stratified sampling pass's per-stratum draw count
	// (default 192).
	Samples int
	// Steps caps the binary-search decision steps (default 24); the search
	// also stops on its own once the bracket is tighter than the rational
	// resolution 1/MaxK².
	Steps int
	// Ctx, when non-nil, cancels the solve between pool tasks.
	Ctx context.Context
}

// randEngine holds the immutable per-solve state. It embeds the exact
// search's graph problem for its single-set evaluators, its degrees, and
// the leaves that scan the exhaustive strata.
type randEngine struct {
	*graphSearch

	seed uint64
	salt uint64

	trialsPerDecision int

	scratch sync.Pool // *randScratch
}

// randScratch is the pooled per-task state of the sampling and trial pools.
type randScratch struct {
	rd      *bitset.RevolvingDoor
	S       *bitset.Set // big-path candidate set
	sc      *bigScratch
	members []int
	perm    []int
}

// stratum describes one cardinality of the search space.
type stratum struct {
	k          int
	count      uint64 // C(n, k)
	exhaustive bool
}

// randCandidate is one exactly evaluated set, comparable across strata.
type randCandidate struct {
	found bool
	k     int
	best  chunkBest // found/num/set/setBig/inner/innerBig only
}

// better reports whether a beats b under the engine's rational compare with
// the smallest-witness tie-break (a.k a's cardinality, b.k b's).
func (a *randCandidate) better(b *randCandidate) bool {
	if !a.found {
		return false
	}
	if !b.found {
		return true
	}
	an, bn := int64(a.best.num), int64(b.best.num)
	ak, bk := int64(a.k), int64(b.k)
	if an*bk != bn*ak {
		return an*bk < bn*ak
	}
	return witnessLess(&a.best, &b.best)
}

// Randomized brackets the chosen expansion objective with the randomized
// certified solver. The returned Result's Value is a witnessed (exactly
// evaluated) upper bound; Cert states the bracket, its failure probability,
// and the trial count. When every cardinality fits the exhaustive cutoff
// the result is a full enumeration and Cert.Kind is CertExact.
//
// The planned work — exhaustive scans, sampling pass, and the worst-case
// trial schedule — is priced up front against Budget in the engine's usual
// units; an infeasible plan refuses with an ErrBudget-wrapped error before
// any work runs.
func Randomized(g *graph.Graph, obj Objective, opt RandOptions) (Result, error) {
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
	budget := opt.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	targetFail := opt.TargetFailure
	if targetFail <= 0 {
		targetFail = defaultRandFailure
	}
	samples := opt.Samples
	if samples <= 0 {
		samples = defaultRandSamples
	}
	steps := opt.Steps
	if steps <= 0 {
		steps = defaultRandSteps
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = poolWidth()
	}

	strata := make([]stratum, 0, maxK)
	sampled := 0
	for k := 1; k <= maxK; k++ {
		c := binom(n, k)
		st := stratum{k: k, count: c, exhaustive: c <= randExhaustiveCutoff}
		if !st.exhaustive {
			sampled++
		}
		strata = append(strata, st)
	}

	// Worst-case trial schedule: T per (step, sampled stratum) decision,
	// sized so steps·sampled·(1−p*)^T ≤ TargetFailure.
	trialsPer := 0
	if sampled > 0 {
		decisions := float64(steps * sampled)
		trialsPer = int(math.Ceil(math.Log(decisions/targetFail) / -math.Log(1-randTrialSuccess)))
		if trialsPer < 1 {
			trialsPer = 1
		}
	}

	// Up-front budget pricing, saturating like enumWork: exhaustive scans at
	// C(n,k)·setCost, the sampling pass at samples·setCost, and the search
	// at one eval per walked vertex — n·setCost per trial, worst case.
	var planned uint64
	addPlanned := func(w uint64) {
		if planned+w < planned {
			planned = math.MaxUint64
			return
		}
		planned += w
	}
	for _, st := range strata {
		cost := setCost(obj, st.k)
		if st.exhaustive {
			hi, lo := bits.Mul64(st.count, cost)
			if hi != 0 {
				planned = math.MaxUint64
				break
			}
			addPlanned(lo)
			continue
		}
		perTrial := uint64(n + descentPasses*descentDraws*st.k + 4)
		perStratum := uint64(samples) + uint64(steps)*uint64(trialsPer)*perTrial
		hi, lo := bits.Mul64(perStratum, cost)
		if hi != 0 {
			planned = math.MaxUint64
			break
		}
		addPlanned(lo)
	}
	if planned > budget {
		return Result{}, fmt.Errorf("expansion: randomized %v solver on n=%d (|S| ≤ %d) plans %d work units: %w (budget %d); raise Options.Budget or lower α",
			obj, n, maxK, planned, ErrBudget, budget)
	}

	e := &randEngine{
		graphSearch:       newGraphSearch(g, obj, maxK, Options{}, budget, true),
		seed:              opt.Seed,
		salt:              rng.Salt("expansion/randomized"),
		trialsPerDecision: trialsPer,
	}
	e.scratch.New = func() any {
		sc := &randScratch{rd: &bitset.RevolvingDoor{}}
		if !e.small {
			sc.S = bitset.New(n)
			sc.sc = newBigScratch(n)
		}
		return sc
	}

	var (
		best       randCandidate
		totalSets  int
		totalTrial int
	)

	// Phase 1 — exhaustive strata: each is one search leaf (empty prefix,
	// no seed incumbent), one pool task per stratum, merged in stratum
	// order. Sets skipped by a leaf's per-set floor count as scanned, so
	// Sets covers every set of the stratum.
	var exh []int
	for _, st := range strata {
		if st.exhaustive {
			exh = append(exh, st.k)
		}
	}
	exhOuts := make([]chunkBest, len(exh))
	err := runPool(opt.Ctx, len(exh), workers, func(i int) error {
		ar := e.pool.Get().(*bnbArena)
		defer e.pool.Put(ar)
		return e.leaf(&exhOuts[i], ar, nil, 0, exh[i], exh[i])
	})
	if err != nil {
		return Result{}, err
	}
	for i, r := range exhOuts {
		totalSets += r.sets + int(r.pruned)
		if r.found {
			cand := randCandidate{found: true, k: exh[i], best: r}
			cand.best.sets, cand.best.pruned = 0, 0
			if cand.better(&best) {
				best = cand
			}
		}
	}

	if sampled == 0 {
		// Every stratum was enumerated: the result is exact.
		res := e.finish(&best, totalSets, 0, Certificate{Kind: CertExact})
		res.Cert.CILow, res.Cert.CIHigh = res.Value, res.Value
		return res, nil
	}

	// Phase 2 — stratified sampling pass: uniform ranks unranked through
	// the revolving-door bijection, evaluated exactly; seeds the bracket's
	// witnessed upper end.
	type sampleTask struct {
		k     int
		count uint64 // C(n, k)
		lo    int    // sample-index range [lo, hi)
		hi    int
	}
	var sTasks []sampleTask
	for _, st := range strata {
		if st.exhaustive {
			continue
		}
		for lo := 0; lo < samples; lo += randSampleChunk {
			hi := lo + randSampleChunk
			if hi > samples {
				hi = samples
			}
			sTasks = append(sTasks, sampleTask{k: st.k, count: st.count, lo: lo, hi: hi})
		}
	}
	sOuts := make([]randCandidate, len(sTasks))
	sSets := make([]int, len(sTasks))
	err = runPool(opt.Ctx, len(sTasks), workers, func(i int) error {
		t := sTasks[i]
		sc := e.scratch.Get().(*randScratch)
		defer e.scratch.Put(sc)
		cand := randCandidate{k: t.k}
		for s := t.lo; s < t.hi; s++ {
			stream := e.stream(1, t.k, 0, s)
			rank := stream.Uint64n(t.count)
			num, cb := e.evalRank(sc, t.k, rank)
			sSets[i]++
			cb.num = num
			one := randCandidate{found: true, k: t.k, best: cb}
			if one.better(&cand) {
				cand = one
			}
		}
		sOuts[i] = cand
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	for i := range sOuts {
		totalSets += sSets[i]
		if sOuts[i].better(&best) {
			best = sOuts[i]
		}
	}
	totalTrial += samples * sampled

	if !best.found {
		// Unreachable for nonempty strata — every sample evaluates a set —
		// but refuse loudly rather than certify nothing.
		return Result{}, fmt.Errorf("expansion: randomized %v solver found no candidate on n=%d", obj, n)
	}

	// Phase 3 — binary search on θ. YES tightens the witnessed upper end;
	// NO raises the certified lower end and pays its failure contribution.
	lo := 0.0
	hi := float64(best.best.num) / float64(best.k)
	resolution := 1.0 / float64(maxK*maxK)
	failure := 0.0
	var sampledStrata []stratum
	for _, st := range strata {
		if !st.exhaustive {
			sampledStrata = append(sampledStrata, st)
		}
	}
	tOuts := make([]randCandidate, sampled*trialsPer)
	tSets := make([]int, sampled*trialsPer)
	for step := 0; step < steps && hi-lo > resolution; step++ {
		theta := lo + (hi-lo)/2
		err := runPool(opt.Ctx, len(tOuts), workers, func(i int) error {
			st := sampledStrata[i/trialsPer]
			trial := i % trialsPer
			sc := e.scratch.Get().(*randScratch)
			defer e.scratch.Put(sc)
			stream := e.stream(2, st.k, step, trial)
			tOuts[i], tSets[i] = e.trial(sc, stream, st.k, theta)
			return nil
		})
		if err != nil {
			return Result{}, err
		}
		totalTrial += len(tOuts)
		stepBest := randCandidate{}
		for i := range tOuts {
			totalSets += tSets[i]
			if tOuts[i].better(&stepBest) {
				stepBest = tOuts[i]
			}
		}
		if stepBest.found {
			// YES: a set strictly below θ was witnessed.
			if stepBest.better(&best) {
				best = stepBest
			}
			hi = float64(best.best.num) / float64(best.k)
			if hi < lo {
				// The witness refutes an earlier NO decision — the trial
				// model missed a below-lo set at a previous step. Drop the
				// contradicted lower end and keep searching below the new
				// witness; the failure already charged for the refuted
				// steps stays (conservative).
				lo = 0
			}
		} else {
			// NO: every sampled stratum pays the modeled miss probability.
			lo = theta
			failure += float64(sampled) * math.Pow(1-randTrialSuccess, float64(trialsPer))
		}
	}

	cert := Certificate{
		Kind:        CertCertified,
		FailureProb: failure,
		CILow:       lo,
		CIHigh:      hi,
		Trials:      totalTrial,
	}
	return e.finish(&best, totalSets, totalTrial, cert), nil
}

// finish assembles the Result from the winning candidate.
func (e *randEngine) finish(best *randCandidate, sets, trials int, cert Certificate) Result {
	res := Result{Value: math.Inf(1), Sets: sets, Kernel: "randomized-ppsz", Cert: cert}
	if best.found {
		res.Value = float64(best.best.num) / float64(best.k)
		fillWitness(&res, &best.best, e.n)
	}
	res.Cert.Trials = trials
	return res
}

// stream derives the per-task RNG stream from (phase, k, step, index) —
// a pure function of the options and the task's identity, never of
// scheduling, which is what keeps every randomized artifact worker-
// invariant.
func (e *randEngine) stream(phase uint64, k, step, idx int) *rng.RNG {
	h := e.salt
	h = fnvMix(h, phase)
	h = fnvMix(h, uint64(k))
	h = fnvMix(h, uint64(step))
	h = fnvMix(h, uint64(idx))
	return rng.New(e.seed ^ h)
}

// fnvMix folds one 64-bit word into an FNV-1a style accumulator.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h
}

// evalRank exactly evaluates the k-set at revolving-door rank r, returning
// its numerator and a witness-carrying chunkBest.
func (e *randEngine) evalRank(sc *randScratch, k int, rank uint64) (int, chunkBest) {
	sc.rd.Reset(e.n, k, rank)
	if e.small {
		S := sc.rd.Mask()
		num, inner := e.evalSmall.eval(S)
		return num, chunkBest{found: true, num: num, set: S, inner: inner}
	}
	if sc.S == nil {
		sc.S = bitset.New(e.n)
	}
	sc.rd.FillSet(sc.S)
	sc.members = sc.S.AppendIndices(sc.members[:0])
	sc.sc.members = sc.members
	num, innerSub := e.evalBig.eval(sc.S, sc.sc)
	cb := chunkBest{found: true, num: num, setBig: bitset.New(e.n)}
	cb.setBig.Copy(sc.S)
	if innerSub != 0 {
		cb.innerBig = bitset.New(e.n)
		expandSubInto(cb.innerBig, innerSub, sc.members)
	}
	return num, cb
}

// trial runs one PPSZ-style randomized walk at threshold θ in stratum k:
// a random vertex ordering, forced exclusion where the degree floor proves
// v cannot sit in any below-θ k-set, forced inclusion when the tail is
// exactly what the set still needs, and a biased coin — include with
// probability 7/8 when the vertex is coverage-free, 5/8 while the running
// set stays below the θ·k numerator target, 1/8 otherwise — everywhere
// else. Returns the found below-θ candidate (found=false on a miss) and
// the number of exact set evaluations spent.
func (e *randEngine) trial(sc *randScratch, stream *rng.RNG, k int, theta float64) (randCandidate, int) {
	n := e.n
	if cap(sc.perm) < n {
		sc.perm = make([]int, n)
	}
	perm := sc.perm[:n]
	for i := range perm {
		perm[i] = i
	}
	stream.ShuffleInts(perm)

	target := theta * float64(k)
	evals := 0
	var (
		maskS    uint64 // small path
		num      int
		size     int
		inner    uint64
		innerSub uint64
	)
	if !e.small {
		sc.S.Clear()
		sc.members = sc.members[:0]
	}
	evalWith := func(v int) (int, uint64) {
		// Evaluate S ∪ {v} with the single-set oracle; caller decides
		// whether the inclusion sticks.
		evals++
		if e.small {
			return e.evalSmall.eval(maskS | 1<<uint(v))
		}
		sc.S.Add(v)
		insertMember(&sc.members, v)
		sc.sc.members = sc.members
		return e.evalBig.eval(sc.S, sc.sc)
	}
	reject := func(v int) {
		if !e.small {
			sc.S.Remove(v)
			removeMember(&sc.members, v)
		}
	}
	accept := func(v int, newNum int, sub uint64) {
		if e.small {
			maskS |= 1 << uint(v)
			inner = sub
		} else {
			innerSub = sub
		}
		num = newNum
		size++
	}

	for idx := 0; idx < n && size < k; idx++ {
		v := perm[idx]
		need := k - size
		remaining := n - idx
		if need < remaining {
			// Degree floor: every k-set containing v has numerator at least
			// deg(v) − (k−1); if that already meets the target, v is out of
			// every below-θ set — a sound forced exclusion (βu admits no
			// such floor).
			if e.obj != ObjUnique && float64(e.deg[v]-(k-1)) >= target {
				continue
			}
			newNum, sub := evalWith(v)
			var p uint64
			switch {
			case newNum <= num:
				p = 7 // coverage-free (or better): almost always take it
			case float64(newNum) < target:
				p = 5 // still under the final numerator target
			default:
				p = 1 // overshooting: mostly reject, keep some exploration
			}
			if stream.Uint64n(8) < p {
				accept(v, newNum, sub)
			} else {
				reject(v)
			}
			continue
		}
		// Forced fill: the tail is exactly what the set still needs.
		newNum, sub := evalWith(v)
		accept(v, newNum, sub)
	}

	// Bounded stochastic single-swap descent: per pass, every member tries
	// a handful of random replacements and the first strict improvement
	// sticks. O(k) evals per pass — cheap next to the walk — and it
	// converts near-misses into hits, which is what keeps the modeled
	// per-trial success probability honest in practice.
	contains := func(v int) bool {
		if e.small {
			return maskS>>uint(v)&1 == 1
		}
		return sc.S.Contains(v)
	}
	for pass := 0; pass < descentPasses; pass++ {
		improved := false
		var snapshot []int
		if e.small {
			snapshot = snapshot[:0]
			for rest := maskS; rest != 0; rest &= rest - 1 {
				snapshot = append(snapshot, bits.TrailingZeros64(rest))
			}
		} else {
			snapshot = append(snapshot[:0], sc.members...)
		}
		for _, u := range snapshot {
			if !contains(u) {
				continue
			}
			for d := 0; d < descentDraws; d++ {
				v := stream.Intn(n)
				if contains(v) {
					continue
				}
				evals++
				var newNum int
				var sub uint64
				if e.small {
					cand := maskS&^(1<<uint(u)) | 1<<uint(v)
					newNum, sub = e.evalSmall.eval(cand)
					if newNum < num {
						maskS = cand
						num, inner = newNum, sub
						improved = true
						break
					}
				} else {
					sc.S.Remove(u)
					removeMember(&sc.members, u)
					sc.S.Add(v)
					insertMember(&sc.members, v)
					sc.sc.members = sc.members
					newNum, sub = e.evalBig.eval(sc.S, sc.sc)
					if newNum < num {
						num, innerSub = newNum, sub
						improved = true
						break
					}
					sc.S.Remove(v)
					removeMember(&sc.members, v)
					sc.S.Add(u)
					insertMember(&sc.members, u)
				}
			}
		}
		if !improved {
			break
		}
	}

	if size != k || !(float64(num) < target) {
		return randCandidate{}, evals
	}
	cand := randCandidate{found: true, k: k, best: chunkBest{found: true, num: num}}
	if e.small {
		cand.best.set = maskS
		cand.best.inner = inner
	} else {
		cand.best.setBig = bitset.New(n)
		cand.best.setBig.Copy(sc.S)
		if innerSub != 0 {
			cand.best.innerBig = bitset.New(n)
			expandSubInto(cand.best.innerBig, innerSub, sc.members)
		}
	}
	return cand, evals
}
