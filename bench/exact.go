package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wexp"
)

// The exact workload is a closed-loop stream of fresh seeded expansion
// queries. Each is answered the way wexpd answers one: the exact search at
// the query's budget, then the randomized certified tier when the exact
// search runs out of budget.

// exactMix fixes the objective of each of 20 consecutive queries: 8 β,
// 4 βu, 3 βw, 2 edge and 3 bipartite. A fixed order instead of a random
// draw per query keeps the mix of every run identical, so the seed moves
// only the graphs.
var exactMix = [20]string{
	"ordinary", "unique", "ordinary", "bipartite", "wireless",
	"ordinary", "edge", "unique", "ordinary", "bipartite",
	"ordinary", "wireless", "unique", "ordinary", "edge",
	"bipartite", "ordinary", "unique", "ordinary", "wireless",
}

var exactObjectives = []string{"ordinary", "unique", "wireless", "edge", "bipartite"}

var objectiveOf = map[string]wexp.Objective{
	"ordinary": wexp.ObjOrdinary,
	"unique":   wexp.ObjUnique,
	"wireless": wexp.ObjWireless,
	"edge":     wexp.ObjEdge,
}

// exactScale sizes the exact workload's instances.
type exactScale struct {
	betaN        []int // β: ER(n, 0.08) with |S| ≤ betaMaxK
	betaMaxK     int
	smallN       []int // βu, βw, edge: ER(n, 0.3)
	wirelessMaxK int   // βw's size cap; βu and edge use α = 0.5
	bipS         []int // bipartite: RandomBipartite(s, 2s, 0.12)
	bipMaxK      int
	// budget is the per-query work budget of both tiers. It is 2^22, a
	// sixteenth of the library default: at the default, one query in ten
	// spends about a second before it falls back, so a run's time would
	// hang on a handful of queries.
	budget uint64
	pool   int // instances built at set-up; the stream cycles through them
	window int // ops every run executes, traced or not
}

var exactFull = exactScale{
	betaN: []int{72, 80, 88, 96, 104, 112}, betaMaxK: 6,
	smallN:       []int{16, 18, 20, 22, 24, 26, 17, 19, 21, 23, 25},
	wirelessMaxK: 5,
	bipS:         []int{22, 23, 24, 25, 26}, bipMaxK: 8,
	budget: 1 << 22, pool: 2000, window: 200,
}

type expInstance struct {
	class string
	g     *wexp.Graph
	b     *wexp.Bipartite
	maxK  int
	seed  uint64 // the randomized tier's seed
}

// expAnswer is one query's answer and what the layers did for it.
type expAnswer struct {
	Op          int     `json:"op"`
	Class       string  `json:"class"`
	Tier        string  `json:"tier"`
	Value       float64 `json:"value"`
	Witness     []int   `json:"witness"`
	Inner       []int   `json:"inner,omitempty"`
	Cert        wexp.Certificate
	exactDur    time.Duration
	randDur     time.Duration
	sets        int
	pruned      int64
	visited     int64
	exactFailed bool // the exact tier ran out of budget
}

type exactWorkload struct {
	sc      exactScale
	seed    uint64
	pool    []expInstance
	answers []expAnswer
}

func newExact(sc exactScale, seed uint64) (*exactWorkload, error) {
	w := &exactWorkload{sc: sc, seed: seed}
	parent := wexp.NewRNG(seed)
	seen := map[string]int{}
	for i := 0; i < sc.pool; i++ {
		r := parent.Split()
		class := exactMix[i%len(exactMix)]
		j := seen[class]
		seen[class]++
		inst := expInstance{class: class, seed: r.Uint64()}
		switch class {
		case "ordinary":
			inst.g = wexp.ErdosRenyi(sc.betaN[j%len(sc.betaN)], 0.08, r)
			inst.maxK = sc.betaMaxK
		case "bipartite":
			s := sc.bipS[j%len(sc.bipS)]
			inst.b = wexp.RandomBipartite(s, 2*s, 0.12, r)
			inst.maxK = min(sc.bipMaxK, s)
		default:
			n := sc.smallN[j%len(sc.smallN)]
			inst.g = wexp.ErdosRenyi(n, 0.3, r)
			inst.maxK = n / 2
			if class == "wireless" {
				inst.maxK = sc.wirelessMaxK
			}
		}
		w.pool = append(w.pool, inst)
	}
	return w, nil
}

func (w *exactWorkload) window() int { return w.sc.window }

func (w *exactWorkload) stride() int { return len(exactMix) }

func (w *exactWorkload) reset() { w.answers = w.answers[:0] }

func (w *exactWorkload) op(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	inst := &w.pool[i%len(w.pool)]
	opSpan := tr.begin("op", inst.class, 0, i)
	start := time.Now()
	a, err := w.answer(ctx, inst, tr, opSpan.ID, i)
	lat := time.Since(start)
	tr.end(opSpan)
	if err != nil {
		return lat, err
	}
	w.answers = append(w.answers, a)
	return lat, nil
}

// answer runs one query through the exact tier and, when that runs out of
// budget, the randomized tier.
func (w *exactWorkload) answer(ctx context.Context, inst *expInstance, tr *tracer, parent int64, op int) (expAnswer, error) {
	a := expAnswer{Op: op, Class: inst.class, Tier: "exact"}
	opt := wexp.ExpansionOptions{RunOpts: wexp.RunOpts{Workers: workers, Budget: w.sc.budget}, MaxK: inst.maxK}
	if inst.b != nil {
		sp := tr.begin("MinBipartiteExpansionWith", inst.class, parent, op)
		start := time.Now()
		res, err := wexp.MinBipartiteExpansionWith(ctx, inst.b, opt)
		a.exactDur = time.Since(start)
		tr.end(sp)
		if err != nil {
			return a, fmt.Errorf("bipartite query %d: %w", op, err)
		}
		a.Value, a.Witness = res.Value, res.Witness.Indices()
		a.sets, a.pruned, a.visited = res.Sets, res.Pruned, res.Visited
		a.Cert = wexp.Certificate{Kind: wexp.CertExact, CILow: res.Value, CIHigh: res.Value}
		return a, nil
	}
	obj := objectiveOf[inst.class]
	sp := tr.begin("Expansion", inst.class, parent, op)
	start := time.Now()
	res, err := wexp.Expansion(ctx, inst.g, obj, opt)
	a.exactDur = time.Since(start)
	tr.end(sp)
	if errors.Is(err, wexp.ErrBudget) {
		a.exactFailed, a.Tier = true, "randomized"
		sp := tr.begin("RandomizedExpansionWith", inst.class, parent, op)
		start := time.Now()
		res, err = wexp.RandomizedExpansionWith(ctx, inst.g, obj, wexp.RandomizedOptions{
			RunOpts: wexp.RunOpts{Workers: workers, Budget: w.sc.budget, Seed: inst.seed},
			MaxK:    inst.maxK,
		})
		a.randDur = time.Since(start)
		tr.end(sp)
	}
	if err != nil {
		return a, fmt.Errorf("%s query %d: no answer from either tier: %w", inst.class, op, err)
	}
	if !a.exactFailed {
		a.sets, a.pruned, a.visited = res.Sets, res.Pruned, res.Visited
	}
	a.Value, a.Cert = res.Value, res.Cert
	if res.Witness != nil {
		a.Witness = res.Witness.Indices()
	}
	if res.InnerWitness != nil {
		a.Inner = res.InnerWitness.Indices()
	}
	return a, nil
}

func (w *exactWorkload) check(r *report) {
	rs := wexp.NewRNG(w.seed ^ 0x636865636b) // "check"
	for i := range w.answers {
		a := &w.answers[i]
		r.checkErr(checkExpansion(&w.pool[a.Op%len(w.pool)], a, rs))
	}
}

func (w *exactWorkload) digest() string {
	d := newDigester()
	for _, a := range w.answers[:min(len(w.answers), w.sc.window)] {
		d.add(a)
	}
	return d.sum()
}

func (w *exactWorkload) layers(r *report) {
	type acc struct {
		busy, doneBusy float64
		sets           int
		pruned         float64
		visited        int64
	}
	per := map[string]*acc{}
	for _, c := range exactObjectives {
		per[c] = &acc{}
	}
	var attempts, useful int
	var wasted, randBusy float64
	var trials int
	for _, a := range w.answers {
		p := per[a.Class]
		p.busy += a.exactDur.Seconds()
		attempts++
		if a.exactFailed {
			wasted += a.exactDur.Seconds()
			randBusy += a.randDur.Seconds()
			trials += a.Cert.Trials
			continue
		}
		useful++
		p.doneBusy += a.exactDur.Seconds()
		p.sets += a.sets
		p.pruned += float64(a.pruned)
		p.visited += a.visited
	}
	for _, c := range exactObjectives {
		p := per[c]
		r.set("expansion."+c+".busy_s", p.busy)
		r.set("expansion."+c+".sets", float64(p.sets))
		// Only finished searches report counters, so the rate is over
		// their time alone.
		r.set("expansion."+c+".sets_per_s", ratio(float64(p.sets), p.doneBusy))
		r.set("expansion."+c+".visited", float64(p.visited))
		r.set("expansion."+c+".prune_rate", ratio(p.pruned, p.pruned+float64(p.sets)))
	}
	r.set("expansion.exact.useful_ratio", ratio(float64(useful), float64(attempts)))
	r.set("expansion.exact.wasted_s", wasted)
	r.set("expansion.randomized.busy_s", randBusy)
	r.set("expansion.randomized.trials", float64(trials))
}

// --- correctness ----------------------------------------------------------------

// checkSamples is how many random sets each answer is tested against.
const checkSamples = 12

// checkExpansion recomputes the answer's objective on its witness and
// requires it to equal the reported value, requires a randomized answer to
// carry a certificate of failure probability at most 1e-9, and requires
// that no set in a random sample beats the value the answer guarantees:
// the value itself when exact, the certificate's lower end otherwise.
func checkExpansion(inst *expInstance, a *expAnswer, r *wexp.RNG) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s query %d: %s", a.Class, a.Op, fmt.Sprintf(format, args...))
	}
	n := 0
	if inst.b != nil {
		n = inst.b.NS()
	} else {
		n = inst.g.N()
	}
	if len(a.Witness) == 0 || len(a.Witness) > inst.maxK {
		return fail("witness size %d outside [1,%d]", len(a.Witness), inst.maxK)
	}
	for i, v := range a.Witness {
		if v < 0 || v >= n || (i > 0 && v <= a.Witness[i-1]) {
			return fail("witness %v is not a sorted set of vertices below %d", a.Witness, n)
		}
	}
	var got float64
	switch {
	case inst.b != nil:
		got = bipartiteExpansion(inst.b, a.Witness)
	case a.Class == "wireless" && len(a.Inner) == 0:
		// No inner set reaches a vertex outside S: the value must be 0.
		got = wirelessBest(inst.g, a.Witness)
	case a.Class == "wireless":
		if !subset(a.Inner, a.Witness) {
			return fail("inner witness %v is not a subset of %v", a.Inner, a.Witness)
		}
		got = wirelessInner(inst.g, a.Witness, a.Inner)
	default:
		got = setObjective(inst.g, a.Class, a.Witness)
	}
	if got != a.Value {
		return fail("witness %v evaluates to %v, answer says %v", a.Witness, got, a.Value)
	}
	floor := a.Value
	switch a.Cert.Kind {
	case wexp.CertExact:
	case wexp.CertCertified:
		if a.Cert.FailureProb > 1e-9 {
			return fail("certificate failure probability %g above 1e-9", a.Cert.FailureProb)
		}
		floor = a.Cert.CILow
	default:
		return fail("certificate kind %q is neither exact nor certified", a.Cert.Kind)
	}
	for s := 0; s < checkSamples; s++ {
		set := r.Choose(n, 1+r.Intn(min(inst.maxK, n)))
		var v float64
		switch {
		case inst.b != nil:
			v = bipartiteExpansion(inst.b, set)
		case a.Class == "wireless":
			v = wirelessBest(inst.g, set)
		default:
			v = setObjective(inst.g, a.Class, set)
		}
		if v < floor {
			return fail("sampled set %v has value %v below the answer's %v", set, v, floor)
		}
	}
	return nil
}

func subset(a, b []int) bool {
	in := map[int]bool{}
	for _, v := range b {
		in[v] = true
	}
	for _, v := range a {
		if !in[v] {
			return false
		}
	}
	return true
}

func members(n int, set []int) []bool {
	in := make([]bool, n)
	for _, v := range set {
		in[v] = true
	}
	return in
}

// setObjective evaluates β (|Γ⁻(S)|), βu (|Γ¹(S)|) or edge (|e(S, S̄)|),
// each divided by |S|.
func setObjective(g *wexp.Graph, class string, set []int) float64 {
	in := members(g.N(), set)
	hits := make([]int, g.N())
	cut := 0
	for _, u := range set {
		for _, v := range g.Neighbors(u) {
			if !in[v] {
				hits[v]++
				cut++
			}
		}
	}
	num := 0
	switch class {
	case "edge":
		num = cut
	case "ordinary":
		for _, h := range hits {
			if h > 0 {
				num++
			}
		}
	case "unique":
		for _, h := range hits {
			if h == 1 {
				num++
			}
		}
	}
	return float64(num) / float64(len(set))
}

// wirelessInner is |Γ¹_S(S')| / |S|: the vertices outside S with exactly
// one neighbor in S'.
func wirelessInner(g *wexp.Graph, set, inner []int) float64 {
	in := members(g.N(), set)
	hits := make([]int, g.N())
	for _, u := range inner {
		for _, v := range g.Neighbors(u) {
			if !in[v] {
				hits[v]++
			}
		}
	}
	num := 0
	for _, h := range hits {
		if h == 1 {
			num++
		}
	}
	return float64(num) / float64(len(set))
}

// wirelessBest is βw of one set: the best inner subset's value.
func wirelessBest(g *wexp.Graph, set []int) float64 {
	best := 0.0
	for mask := 1; mask < 1<<len(set); mask++ {
		var inner []int
		for i, v := range set {
			if mask&(1<<i) != 0 {
				inner = append(inner, v)
			}
		}
		best = max(best, wirelessInner(g, set, inner))
	}
	return best
}

// bipartiteExpansion is |Γ(S')| / |S'| for S' on the S side.
func bipartiteExpansion(b *wexp.Bipartite, set []int) float64 {
	seen := make([]bool, b.NN())
	num := 0
	for _, u := range set {
		for _, v := range b.NeighborsOfS(u) {
			if !seen[v] {
				seen[v] = true
				num++
			}
		}
	}
	return float64(num) / float64(len(set))
}
