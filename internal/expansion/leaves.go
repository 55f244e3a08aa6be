package expansion

import (
	"fmt"
	"math/bits"

	"wexp/internal/bitset"
	"wexp/internal/graph"
)

// The graph objectives' side of the branch-and-bound search (bnb.go): the
// seed pass, the lower bound, and the leaves for β, βu, βw and edge
// expansion, in two representations — uint64 masks for n ≤ 64 and bitsets
// with CSR rows for any n. The leaves walk a subtree's completions in
// revolving-door Gray-code order (bitset.RevolvingDoor): successive sets
// differ by one vertex out and one in, so the coverage state moves along
// the two swapped vertices' adjacency rows instead of being recomputed
// from all k members. Per-worker scratch lives in the driver's pooled
// arena, so the steady-state leaf loop allocates nothing.

// graphSearch is the graph-objective problem of the search driver.
type graphSearch struct {
	*bnbEngine
	obj   Objective
	small bool

	masks []uint64      // small representation (n ≤ 64)
	adj   []*bitset.Set // big representation
	rows  [][]int32     // CSR adjacency rows
	deg   []int

	evalSmall *smallKernel // single-set evaluators (seed pass, randomized tier)
	evalBig   *bigKernel
	seedScr   *bigScratch
	seedSet   *bitset.Set // big-path seed evaluation set buffer
}

func newGraphSearch(g *graph.Graph, obj Objective, maxK int, opt Options, budget uint64, perK bool) *graphSearch {
	n := g.N()
	e := &graphSearch{
		obj:   obj,
		small: n <= 64 && !opt.forceBig,
		rows:  make([][]int32, n),
		deg:   make([]int, n),
	}
	e.bnbEngine = newBnbEngine(n, maxK, perK, budget, opt.Workers, opt.Ctx, e)
	e.what = fmt.Sprintf("exact %v branch-and-bound on n=%d (|S| ≤ %d)", obj, n, maxK)
	e.hint = "raise Options.Budget or lower α"
	for v := 0; v < n; v++ {
		e.rows[v] = g.Neighbors(v)
		e.deg[v] = g.Degree(v)
	}
	if e.small {
		e.evalSmall = newSmallKernel(g, obj)
		e.masks = e.evalSmall.masks
	} else {
		e.evalBig = newBigKernel(g, obj)
		e.adj = e.evalBig.adj
		e.seedScr = newBigScratch(n)
		e.seedSet = bitset.New(n)
	}
	e.pool.New = func() any {
		ar := &bnbArena{
			rd:   &bitset.RevolvingDoor{},
			outs: make([]int, swapBatch),
			ins:  make([]int, swapBatch),
		}
		if e.small {
			ar.degCount = make([]int32, 65)
		} else {
			ar.cnt = make([]int32, n)
			ar.S = bitset.New(n)
			ar.nbr = bitset.New(n)
			ar.pset = bitset.New(n)
			ar.degCount = make([]int32, n+1)
			ar.sc = newBigScratch(n)
		}
		return ar
	}
	return e
}

// evalSet evaluates one set given by its members with the single-set
// evaluators.
func (e *graphSearch) evalSet(members []int) int {
	if e.small {
		var S uint64
		for _, v := range members {
			S |= 1 << uint(v)
		}
		num, _ := e.evalSmall.eval(S)
		return num
	}
	e.seedScr.members = members
	S := e.seedSet
	S.Clear()
	for _, v := range members {
		S.Add(v)
	}
	num, _ := e.evalBig.eval(S, e.seedScr)
	return num
}

// seedPass builds the incumbents every subproblem prunes against: for each
// start vertex, the BFS-ball prefixes of sizes 1..maxK are evaluated with
// the single-set evaluators. No randomness — the incumbents, like
// everything else, are a pure function of the instance. The pass spends at
// most budget/8 work units (charged against the shared meter) and stops
// early — deterministically — when that share is exhausted. Skipped
// entirely for βu, which admits no lower bound and so cannot prune.
func (e *graphSearch) seedPass() error {
	if e.obj == ObjUnique {
		return nil
	}
	seedCap := e.budget/8 + 1
	var spent uint64
	mark := make([]bool, e.n)
	queue := make([]int, 0, e.n)
	order := make([]int, 0, e.maxK)
	for s := 0; s < e.n; s++ {
		for i := range mark {
			mark[i] = false
		}
		queue = append(queue[:0], s)
		mark[s] = true
		order = order[:0]
		for qi := 0; qi < len(queue) && len(order) < e.maxK; qi++ {
			v := queue[qi]
			order = append(order, v)
			for _, w := range e.rows[v] {
				if !mark[w] {
					mark[w] = true
					queue = append(queue, int(w))
				}
			}
		}
		for k := 1; k <= len(order); k++ {
			cost := setCost(e.obj, k)
			if cost > seedCap-spent {
				return nil // share exhausted: stop the whole pass
			}
			if !e.meter.charge(cost) {
				return e.budgetErr()
			}
			spent += cost
			e.recordSeed(e.evalSet(order[:k]), k)
		}
	}
	return nil
}

// bound returns a sound lower bound on the objective numerator over every
// completion of the prefix: members ⊆ [0,t) chosen, the rest of [0,t)
// excluded, r more members to come from [t,n).
//
//   - every objective except βu admits the degree floor
//     maxdeg(P) − (k−1): some chosen vertex keeps that many neighbors
//     outside S, each of which contributes to Γ⁻, to the wireless inner
//     max (take S' = {v}), and to the edge cut;
//   - β and edge add the coverage bound: neighbors of P among the
//     excluded vertices are outside S for good, and at most r of P's
//     tail neighbors can still be absorbed into S — the rest are covered
//     (≥ 1 cut edge each for the edge objective);
//   - βu admits no bound (unique coverage can vanish for any prefix), so
//     its searches never prune — the tree machinery still runs for the
//     determinism contract and the leaf evaluators.
func (e *graphSearch) bound(ar *bnbArena, members []int32, t, k, r int) int {
	if e.obj == ObjUnique || len(members) == 0 {
		return 0
	}
	maxDeg := 0
	for _, v := range members {
		if d := e.deg[v]; d > maxDeg {
			maxDeg = d
		}
	}
	b := maxDeg - (k - 1)
	if b < 0 {
		b = 0
	}
	if e.obj == ObjWireless {
		return b
	}
	var cb int
	if e.small {
		var pm, nbr uint64
		for _, v := range members {
			pm |= 1 << uint(v)
			nbr |= e.masks[v]
		}
		tm := lowMask(t)
		over := bits.OnesCount64(nbr&^tm) - r // tail neighbors beyond the absorbable r
		if over < 0 {
			over = 0
		}
		if e.obj == ObjOrdinary {
			cb = bits.OnesCount64(nbr&tm&^pm) + over
		} else { // ObjEdge: count edges into the excluded set, not vertices
			epe := 0
			exc := tm &^ pm
			for _, v := range members {
				epe += bits.OnesCount64(e.masks[v] & exc)
			}
			cb = epe + over
		}
	} else {
		nbr := ar.nbr
		nbr.Clear()
		for _, v := range members {
			nbr.Union(e.adj[v])
		}
		over := nbr.CountRange(t, e.n) - r
		if over < 0 {
			over = 0
		}
		if e.obj == ObjOrdinary {
			cov := nbr.CountRange(0, t)
			for _, v := range members {
				if nbr.Contains(int(v)) {
					cov--
				}
			}
			cb = cov + over
		} else { // ObjEdge
			pset := ar.pset
			pset.Clear()
			for _, v := range members {
				pset.Add(int(v))
			}
			epe := 0
			for _, v := range members {
				a := e.adj[v]
				epe += a.CountRange(0, t) - a.IntersectionCount(pset)
			}
			cb = epe + over
		}
	}
	if cb > b {
		b = cb
	}
	return b
}

// leaf evaluates every completion of the prefix — C(n−t, r) sets — with
// the revolving-door incremental state preloaded with the prefix.
func (e *graphSearch) leaf(best *chunkBest, ar *bnbArena, members []int32, t, k, r int) error {
	if e.small {
		if e.obj == ObjWireless {
			return e.leafSmallWireless(best, ar, members, t, k, r)
		}
		return e.leafSmallCount(best, ar, members, t, k, r)
	}
	if e.obj == ObjWireless {
		return e.leafBigWireless(best, ar, members, t, k, r)
	}
	return e.leafBigCount(best, ar, members, t, k, r)
}

// considerSmall folds one evaluated set into the subproblem best with the
// engine's (min numerator, numerically smallest witness) tie-break.
func considerSmall(best *chunkBest, num int, S, inner uint64) {
	if !best.found || num < best.num || (num == best.num && S < best.set) {
		best.found = true
		best.num = num
		best.set = S
		best.inner = inner
	}
}

// decRow ripple-subtracts one from the counter of every vertex in row m —
// the inverse of incRow.
func (pl *planes) decRow(m uint64) {
	old := pl.p0
	pl.p0 = old ^ m
	if m &^= old; m == 0 {
		return
	}
	old = pl.p1
	pl.p1 = old ^ m
	if m &^= old; m == 0 {
		return
	}
	old = pl.p2
	pl.p2 = old ^ m
	if m &^= old; m == 0 {
		return
	}
	old = pl.p3
	pl.p3 = old ^ m
	if m &^= old; m == 0 {
		return
	}
	old = pl.p4
	pl.p4 = old ^ m
	if m &^= old; m == 0 {
		return
	}
	pl.p5 ^= m
}

func (pl *planes) evalNum(obj Objective, S uint64) int {
	switch obj {
	case ObjOrdinary:
		return pl.covered(S)
	case ObjUnique:
		return pl.uniqueOut(S)
	default: // ObjEdge
		return pl.cut(S)
	}
}

func (e *graphSearch) leafSmallCount(best *chunkBest, ar *bnbArena, members []int32, t, k, r int) error {
	m := e.n - t
	count := binom(m, r)
	if !e.meter.charge(count) {
		return e.budgetErr()
	}
	var pl planes
	var S uint64
	for _, v := range members {
		pl.incRow(e.masks[v])
		S |= 1 << uint(v)
	}
	rd := ar.rd
	rd.Reset(m, r, 0)
	for _, v := range rd.Members() {
		w := v + t
		pl.incRow(e.masks[w])
		S |= 1 << uint(w)
	}
	best.sets++
	considerSmall(best, pl.evalNum(e.obj, S), S, 0)
	for {
		out, in, ok := rd.Next()
		if !ok {
			return nil
		}
		pl.decRow(e.masks[out+t])
		pl.incRow(e.masks[in+t])
		S ^= 1<<uint(out+t) | 1<<uint(in+t)
		best.sets++
		considerSmall(best, pl.evalNum(e.obj, S), S, 0)
	}
}

func (e *graphSearch) leafSmallWireless(best *chunkBest, ar *bnbArena, members []int32, t, k, r int) error {
	m := e.n - t
	degCount := ar.degCount
	clear(degCount)
	maxDeg := 0
	var S uint64
	for _, v := range members {
		degCount[e.deg[v]]++
		if e.deg[v] > maxDeg {
			maxDeg = e.deg[v]
		}
		S |= 1 << uint(v)
	}
	rd := ar.rd
	rd.Reset(m, r, 0)
	for _, v := range rd.Members() {
		w := v + t
		degCount[e.deg[w]]++
		if e.deg[w] > maxDeg {
			maxDeg = e.deg[w]
		}
		S |= 1 << uint(w)
	}
	cost := setCost(ObjWireless, k)
	var skipped uint64
	for {
		// The per-set degree floor rides the incrementally maintained
		// degree multiset; a skipped set is charged one unit, an evaluated
		// one its full 2^k scan.
		if e.prunable(maxDeg-(k-1), k, best.found, best.num) {
			best.pruned = addSat64(best.pruned, 1)
			skipped++
		} else {
			if !e.meter.charge(cost) {
				return e.budgetErr()
			}
			num, inner := WirelessOfSet(e.masks, S)
			best.sets++
			considerSmall(best, num, S, inner)
		}
		out, in, ok := rd.Next()
		if !ok {
			break
		}
		u, w := out+t, in+t
		S ^= 1<<uint(u) | 1<<uint(w)
		dOut, dIn := e.deg[u], e.deg[w]
		degCount[dOut]--
		degCount[dIn]++
		if dIn > maxDeg {
			maxDeg = dIn
		} else if dOut == maxDeg && degCount[dOut] == 0 {
			for maxDeg > 0 && degCount[maxDeg] == 0 {
				maxDeg--
			}
		}
	}
	if skipped > 0 && !e.meter.charge(skipped) {
		return e.budgetErr()
	}
	return nil
}

// considerBig folds one evaluated set (the arena's S bitset) into the
// subproblem best. Witness buffers belong to the chunkBest — they escape
// into the merged results, so they are never pooled.
func (e *graphSearch) considerBig(best *chunkBest, num int, S *bitset.Set, innerSub uint64, mem []int) {
	if best.found && (num > best.num || (num == best.num && S.Compare(best.setBig) >= 0)) {
		return
	}
	best.found = true
	best.num = num
	if best.setBig == nil {
		best.setBig = bitset.New(e.n)
	}
	best.setBig.Copy(S)
	if e.obj != ObjWireless {
		return
	}
	if innerSub == 0 {
		best.innerBig = nil
		return
	}
	if best.innerBig == nil {
		best.innerBig = bitset.New(e.n)
	}
	expandSubInto(best.innerBig, innerSub, mem)
}

func (e *graphSearch) leafBigCount(best *chunkBest, ar *bnbArena, members []int32, t, k, r int) error {
	m := e.n - t
	count := binom(m, r)
	if !e.meter.charge(count) {
		return e.budgetErr()
	}
	obj := e.obj
	cnt := ar.cnt
	clear(cnt)
	mem := ar.members[:0]
	for _, v := range members {
		mem = append(mem, int(v))
	}
	rd := ar.rd
	rd.Reset(m, r, 0)
	for _, v := range rd.Members() {
		mem = append(mem, v+t)
	}
	S := ar.S
	S.Clear()
	var total int32
	for _, v := range mem {
		S.Add(v)
		switch obj {
		case ObjOrdinary:
			for _, w := range e.rows[v] {
				old := cnt[w]
				cnt[w] = old + 1
				total += b2i(old == 0)
			}
		case ObjUnique:
			for _, w := range e.rows[v] {
				old := cnt[w]
				cnt[w] = old + 1
				total += b2i(old == 0) - b2i(old == 1)
			}
		default: // ObjEdge
			total += int32(e.deg[v]) - 2*cnt[v]
			for _, w := range e.rows[v] {
				cnt[w]++
			}
		}
	}
	corr := func() int32 {
		c := int32(0)
		switch obj {
		case ObjOrdinary:
			for _, v := range mem {
				c += b2i(cnt[v] > 0)
			}
		case ObjUnique:
			for _, v := range mem {
				c += b2i(cnt[v] == 1)
			}
		}
		return c
	}
	best.sets++
	e.considerBig(best, int(total-corr()), S, 0, mem)
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
			u, v := ar.outs[i]+t, ar.ins[i]+t
			for j, x := range mem {
				if x == u {
					mem[j] = v
					break
				}
			}
			switch obj {
			case ObjOrdinary:
				for _, w := range e.rows[u] {
					nw := cnt[w] - 1
					cnt[w] = nw
					total -= b2i(nw == 0)
				}
				for _, w := range e.rows[v] {
					old := cnt[w]
					cnt[w] = old + 1
					total += b2i(old == 0)
				}
			case ObjUnique:
				for _, w := range e.rows[u] {
					old := cnt[w]
					cnt[w] = old - 1
					total += b2i(old == 2) - b2i(old == 1)
				}
				for _, w := range e.rows[v] {
					old := cnt[w]
					cnt[w] = old + 1
					total += b2i(old == 0) - b2i(old == 1)
				}
			default: // ObjEdge
				total -= int32(e.deg[u]) - 2*cnt[u]
				for _, w := range e.rows[u] {
					cnt[w]--
				}
				total += int32(e.deg[v]) - 2*cnt[v]
				for _, w := range e.rows[v] {
					cnt[w]++
				}
			}
			S.Remove(u)
			S.Add(v)
			best.sets++
			e.considerBig(best, int(total-corr()), S, 0, mem)
		}
		done += uint64(bm)
	}
	ar.members = mem
	return nil
}

func (e *graphSearch) leafBigWireless(best *chunkBest, ar *bnbArena, members []int32, t, k, r int) error {
	m := e.n - t
	degCount := ar.degCount
	clear(degCount)
	maxDeg := 0
	mem := ar.members[:0]
	for _, v := range members {
		mem = append(mem, int(v))
	}
	rd := ar.rd
	rd.Reset(m, r, 0)
	for _, v := range rd.Members() {
		mem = append(mem, v+t)
	}
	S := ar.S
	S.Clear()
	for _, v := range mem {
		S.Add(v)
		degCount[e.deg[v]]++
		if e.deg[v] > maxDeg {
			maxDeg = e.deg[v]
		}
	}
	cost := setCost(ObjWireless, k)
	var skipped uint64
	for {
		if e.prunable(maxDeg-(k-1), k, best.found, best.num) {
			best.pruned = addSat64(best.pruned, 1)
			skipped++
		} else {
			if !e.meter.charge(cost) {
				return e.budgetErr()
			}
			ar.sc.members = mem
			num, innerSub := wirelessScanBig(e.adj, S, ar.sc)
			best.sets++
			e.considerBig(best, num, S, innerSub, mem)
		}
		out, in, ok := rd.Next()
		if !ok {
			break
		}
		u, w := out+t, in+t
		S.Remove(u)
		S.Add(w)
		removeMember(&mem, u)
		insertMember(&mem, w)
		dOut, dIn := e.deg[u], e.deg[w]
		degCount[dOut]--
		degCount[dIn]++
		if dIn > maxDeg {
			maxDeg = dIn
		} else if dOut == maxDeg && degCount[dOut] == 0 {
			for maxDeg > 0 && degCount[maxDeg] == 0 {
				maxDeg--
			}
		}
	}
	ar.members = mem
	if skipped > 0 && !e.meter.charge(skipped) {
		return e.budgetErr()
	}
	return nil
}

// planes is the bit-sliced counter bank of the n ≤ 64 counting leaves:
// plane p holds bit p of every vertex's coverage count |N(v) ∩ S|, so a
// revolving-door swap is two word-parallel ripple add/subtracts of the
// swapped vertices' adjacency masks, and each numerator is a handful of
// word operations — independent of both k and vertex degrees. Counts never
// exceed the maximum degree (≤ 63), so six planes always suffice and
// unused high planes stay zero — the evaluators OR all six unconditionally
// to stay branch-free.
type planes struct{ p0, p1, p2, p3, p4, p5 uint64 }

// incRow ripple-adds one to the counter of every vertex in row m.
func (pl *planes) incRow(m uint64) {
	old := pl.p0
	pl.p0 = old ^ m
	if m &= old; m == 0 {
		return
	}
	old = pl.p1
	pl.p1 = old ^ m
	if m &= old; m == 0 {
		return
	}
	old = pl.p2
	pl.p2 = old ^ m
	if m &= old; m == 0 {
		return
	}
	old = pl.p3
	pl.p3 = old ^ m
	if m &= old; m == 0 {
		return
	}
	old = pl.p4
	pl.p4 = old ^ m
	if m &= old; m == 0 {
		return
	}
	pl.p5 ^= m
}

// covered is the Γ⁻ numerator: vertices outside S with count ≥ 1.
func (pl *planes) covered(S uint64) int {
	return bits.OnesCount64((pl.p0 | pl.p1 | pl.p2 | pl.p3 | pl.p4 | pl.p5) &^ S)
}

// uniqueOut is the Γ¹ numerator: vertices outside S with count exactly 1.
func (pl *planes) uniqueOut(S uint64) int {
	return bits.OnesCount64(pl.p0 &^ (pl.p1 | pl.p2 | pl.p3 | pl.p4 | pl.p5) &^ S)
}

// cut is the edge-boundary numerator: Σ_{v∉S} count(v), the number of
// edges with exactly one endpoint in S, as a popcount-weighted plane sum.
func (pl *planes) cut(S uint64) int {
	return bits.OnesCount64(pl.p0&^S) +
		bits.OnesCount64(pl.p1&^S)<<1 +
		bits.OnesCount64(pl.p2&^S)<<2 +
		bits.OnesCount64(pl.p3&^S)<<3 +
		bits.OnesCount64(pl.p4&^S)<<4 +
		bits.OnesCount64(pl.p5&^S)<<5
}

// b2i is the branchless bool→int the counting loops hinge on: the
// compiler lowers it to SETcc, so coverage transitions never mispredict.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// removeMember deletes v from a sorted member list, preserving order.
func removeMember(members *[]int, v int) {
	m := *members
	for i, x := range m {
		if x == v {
			*members = append(m[:i], m[i+1:]...)
			return
		}
	}
}

// insertMember inserts v into a sorted member list, preserving order.
func insertMember(members *[]int, v int) {
	m := append(*members, v)
	i := len(m) - 1
	for i > 0 && m[i-1] > v {
		m[i] = m[i-1]
		i--
	}
	m[i] = v
	*members = m
}

// expandSubInto is expandSub into a reused buffer.
func expandSubInto(dst *bitset.Set, sub uint64, members []int) {
	dst.Clear()
	for rest := sub; rest != 0; rest &= rest - 1 {
		dst.Add(members[bits.TrailingZeros64(rest)])
	}
}
