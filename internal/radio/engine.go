package radio

import (
	"wexp/internal/bitset"
	"wexp/internal/graph"
)

// denseRowBudget caps the dense bit-row cache at 64 MiB — rows are
// possible up to n ≈ 23k, never beyond. The crossover is far below any
// size where dense rows win anyway (the row cache stops fitting in L2/L3
// long before the budget trips).
const denseRowBudget = 64 << 20

// forceCSR makes BuildAdjRows keep no rows on any graph, so the CSR
// scatter runs everywhere. Only tests set it, restoring it on cleanup.
var forceCSR bool

// AdjRows caches a graph's adjacency for the receive step: either one
// bitset row per vertex — the representation the step ORs 64 receivers
// at a time — or no rows at all, in which case every sender scatters its
// CSR neighbor list. Either way the value is immutable after construction
// and safe to share across networks and goroutines; MonteCarlo builds it
// once per graph and hands it to every trial.
type AdjRows struct {
	n int
	// words is the row width in 64-bit words; rows with fewer than
	// `words` neighbors are cheaper to scatter per neighbor than to OR
	// word by word, so the step picks per sender.
	words int
	rows  []*bitset.Set // per-vertex bit rows; nil means CSR scatter only
}

// BuildAdjRows decides from g alone whether bit rows pay, and builds them
// only if they do: rows are kept iff they fit denseRowBudget
// (n · ⌈n/64⌉ · 8 bytes) and at least half of the arcs lie in rows of
// degree ≥ ⌈n/64⌉, the senders the word-wide OR serves. Otherwise no rows
// are allocated and the step scatters from g's CSR. The choice never
// changes results, only speed and memory.
func BuildAdjRows(g *graph.Graph) *AdjRows {
	n := g.N()
	words := (n + 63) / 64
	dense := !forceCSR && int64(n)*int64(words)*8 <= denseRowBudget
	if dense {
		denseArcs := 0
		for v := 0; v < n; v++ {
			if d := g.Degree(v); d >= words {
				denseArcs += d
			}
		}
		dense = denseArcs >= g.M() // denseArcs ≥ half of the 2m arcs
	}
	return newAdjRows(g, dense)
}

// newAdjRows builds the row cache with rows iff dense is set.
func newAdjRows(g *graph.Graph, dense bool) *AdjRows {
	n := g.N()
	a := &AdjRows{n: n, words: (n + 63) / 64}
	if !dense {
		return a
	}
	a.rows = make([]*bitset.Set, n)
	for v := range a.rows {
		row := bitset.New(n)
		for _, w := range g.Neighbors(v) {
			row.Add(int(w))
		}
		a.rows[v] = row
	}
	return a
}

// stepScratch holds the per-network bitset accumulators of the receive
// step. Networks are not safe for concurrent use, so one set per network
// suffices.
type stepScratch struct {
	active *bitset.Set // transmit ∧ informed: the vertices that actually send
	hit    *bitset.Set // vertices with ≥1 transmitting neighbor
	multi  *bitset.Set // vertices with ≥2 transmitting neighbors
	newly  *bitset.Set // receive candidates: exactly one transmitting neighbor
}

func newStepScratch(n int) *stepScratch {
	return &stepScratch{
		active: bitset.New(n),
		hit:    bitset.New(n),
		multi:  bitset.New(n),
		newly:  bitset.New(n),
	}
}

// accumulate is the receive step every exactly-one model shares, and the
// only place the engine walks adjacency for them. Vertices that are not
// informed cannot transmit (their flag is ignored): a processor cannot
// send a message it does not hold. The receive rule — a silent vertex
// receives iff exactly one neighbor transmits — is evaluated 64 vertices
// at a time with two accumulators, hit (≥1 transmitting neighbor) and
// multi (≥2), so collisions never need a per-neighbor counter:
//
//	multi |= hit & row(v);  hit |= row(v)        for each sender v
//	newly  = hit \ multi \ active
//
// A sender ORs its bit row when it has one and its degree reaches the row
// width in words; otherwise it scatters its CSR neighbor list (same sets,
// order-independent). accumulate advances Round and counts Transmissions
// and Collisions = |multi \ active|; the caller commits its receive rule
// over newly, whose members may already be informed.
func (n *Network) accumulate(transmit []bool) *stepScratch {
	if n.scratch == nil {
		n.scratch = newStepScratch(n.G.N())
	}
	sc := n.scratch
	sc.active.Clear()
	sc.hit.Clear()
	sc.multi.Clear()
	rows, words := n.rows.rows, n.rows.words
	// Consecutive senders' CSR lists are contiguous, so each run of them
	// [lo, hi) scatters in one call; a flood round is a single call.
	lo, hi := 0, 0
	for v, inf := range n.Informed {
		if !inf || !transmit[v] {
			continue
		}
		sc.active.Add(v)
		if rows != nil && n.G.Degree(v) >= words {
			sc.hit.AccumulateCover(sc.multi, rows[v])
			continue
		}
		if v != hi {
			sc.hit.ScatterCover(sc.multi, n.G.NeighborRange(lo, hi))
			lo = v
		}
		hi = v + 1
	}
	sc.hit.ScatterCover(sc.multi, n.G.NeighborRange(lo, hi))
	n.Round++
	n.Transmissions += sc.active.Count()
	n.Collisions += sc.multi.SubtractCount(sc.active)
	sc.newly.Copy(sc.hit)
	sc.newly.Subtract(sc.multi)
	sc.newly.Subtract(sc.active)
	return sc
}

// Step executes one synchronous round in which exactly the informed
// vertices marked by transmit send, under the installed model (UnitDisk
// unless UseModel chose another), and returns the number of newly
// informed vertices.
func (n *Network) Step(transmit []bool) int { return n.model.Step(n, transmit) }
