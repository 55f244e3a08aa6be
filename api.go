package wexp

import (
	"wexp/internal/badgraph"
	"wexp/internal/bounds"
	"wexp/internal/expansion"
	"wexp/internal/experiments"
	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/radio"
	"wexp/internal/rng"
	"wexp/internal/spokesman"
)

// Core types, re-exported so callers never import internal packages.
type (
	// Graph is an immutable simple undirected graph in CSR form.
	Graph = graph.Graph
	// GraphBuilder accumulates edges for a Graph.
	GraphBuilder = graph.Builder
	// Bipartite is the paper's framework graph GS = (S, N, E).
	Bipartite = graph.Bipartite
	// BipartiteBuilder accumulates edges for a Bipartite.
	BipartiteBuilder = graph.BipartiteBuilder
	// RNG is the deterministic splittable generator used everywhere.
	RNG = rng.RNG
	// Selection is a spokesman set with its certified unique cover.
	Selection = spokesman.Selection
	// ExpansionResult reports an exact expansion value with its witness.
	ExpansionResult = expansion.Result
	// BroadcastResult summarizes one radio broadcast execution.
	BroadcastResult = radio.RunResult
	// Protocol decides which informed vertices transmit each round.
	Protocol = radio.Protocol
	// ExperimentConfig controls a reproduction experiment run.
	ExperimentConfig = experiments.Config
	// ExperimentResult is the outcome of a reproduction experiment.
	ExperimentResult = experiments.Result
	// ExperimentOptions configures the sharded experiment engine: worker
	// count, artifact output directory, checkpoint/resume behavior.
	ExperimentOptions = experiments.Options
	// ExperimentArtifact is the versioned JSON record of one experiment
	// run (inputs, per-shard results, summary tables, verdict).
	ExperimentArtifact = experiments.Artifact
	// ExperimentRunReport aggregates a multi-experiment engine run:
	// results, artifacts, and the checksummed manifest.
	ExperimentRunReport = experiments.RunReport
)

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewBipartiteBuilder returns a builder for a bipartite graph with sides of
// size s and n.
func NewBipartiteBuilder(s, n int) *BipartiteBuilder {
	return graph.NewBipartiteBuilder(s, n)
}

// InducedBipartite extracts the framework graph GS = (S, Γ⁻(S)) of Section
// 4.1 from g: all edges between the vertex set S and its external
// neighborhood. The second return value maps N-side indices back to
// g-vertex ids.
func InducedBipartite(g *Graph, S []int) (*Bipartite, []int) {
	return graph.InducedBipartite(g, S)
}

// --- Generators -----------------------------------------------------------

// Complete returns the complete graph K_n.
func Complete(n int) *Graph { return gen.Complete(n) }

// Cycle returns the n-cycle.
func Cycle(n int) *Graph { return gen.Cycle(n) }

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) *Graph { return gen.Hypercube(d) }

// Grid returns the rows×cols planar grid (arboricity ≤ 2).
func Grid(rows, cols int) *Graph { return gen.Grid(rows, cols) }

// Torus returns the rows×cols 4-regular torus.
func Torus(rows, cols int) *Graph { return gen.Torus(rows, cols) }

// CompleteBinaryTree returns the complete binary tree with the given
// number of levels.
func CompleteBinaryTree(levels int) *Graph { return gen.CompleteBinaryTree(levels) }

// CPlus returns the Introduction's motivating example: K_n plus a source s0
// (vertex 0) attached to two clique vertices.
func CPlus(n int) *Graph { return gen.CPlus(n) }

// Path returns the path graph on n vertices.
func Path(n int) *Graph { return gen.Path(n) }

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph { return gen.Star(n) }

// Petersen returns the Petersen graph (3-regular, λ2 = 1).
func Petersen() *Graph { return gen.Petersen() }

// CompleteBipartite returns K_{a,b} as a general graph.
func CompleteBipartite(a, b int) *Graph { return gen.CompleteBipartiteGraph(a, b) }

// Wheel returns the wheel graph: an n-cycle plus a hub adjacent to all.
func Wheel(n int) *Graph { return gen.Wheel(n) }

// Barbell returns two k-cliques joined by a single edge (a bad expander).
func Barbell(k int) *Graph { return gen.Barbell(k) }

// Lollipop returns a k-clique attached to a p-vertex path.
func Lollipop(k, p int) *Graph { return gen.LollipopChain(k, p) }

// RandomTree returns a random recursive tree on n vertices (arboricity 1).
func RandomTree(n int, r *RNG) *Graph { return gen.RandomTree(n, r) }

// Margulis returns the explicit Margulis–Gabber–Galil expander on Z_m×Z_m.
func Margulis(m int) *Graph { return gen.Margulis(m) }

// RandomRegular returns a random d-regular simple graph.
func RandomRegular(n, d int, r *RNG) (*Graph, error) { return gen.RandomRegular(n, d, r) }

// ErdosRenyi returns G(n, p).
func ErdosRenyi(n int, p float64, r *RNG) *Graph { return gen.ErdosRenyi(n, p, r) }

// RandomBipartite returns a random bipartite framework graph with no
// isolated vertices.
func RandomBipartite(s, n int, p float64, r *RNG) *Bipartite {
	return gen.RandomBipartite(s, n, p, r)
}

// RandomBipartiteRegular returns a bipartite graph whose S side is
// d-regular.
func RandomBipartiteRegular(s, n, d int, r *RNG) (*Bipartite, error) {
	return gen.RandomBipartiteRegular(s, n, d, r)
}

// --- Expansion measurement --------------------------------------------------

// OrdinaryExpansion computes β(G) exactly: the minimum of |Γ⁻(S)|/|S| over
// nonempty sets with |S| ≤ α·n, found by the branch-and-bound search under
// the default work budget (any n is accepted as long as the search fits;
// use OrdinaryExpansionWith to set the budget explicitly).
func OrdinaryExpansion(g *Graph, alpha float64) (ExpansionResult, error) {
	return expansion.ExactOrdinary(g, alpha)
}

// UniqueExpansion computes βu(G) exactly under the default work budget.
func UniqueExpansion(g *Graph, alpha float64) (ExpansionResult, error) {
	return expansion.ExactUnique(g, alpha)
}

// WirelessExpansion computes βw(G) exactly under the default work budget:
// for every S the inner maximum over S' ⊆ S of |Γ¹_S(S')|/|S| is taken,
// then minimized over S (each evaluated size-k set costs 2^k work units).
func WirelessExpansion(g *Graph, alpha float64) (ExpansionResult, error) {
	return expansion.ExactWireless(g, alpha)
}

// ExpansionOrdering returns (β, βw, βu) exactly, the chain of
// Observation 2.1.
func ExpansionOrdering(g *Graph, alpha float64) (beta, betaW, betaU float64, err error) {
	return expansion.Ordering(g, alpha)
}

// Lambda2 estimates the second-largest adjacency eigenvalue of a regular
// graph (Lemma 3.1's λ).
func Lambda2(g *Graph, r *RNG) (float64, error) {
	res, err := expansion.Lambda2Regular(g, r)
	return res.Lambda, err
}

// WirelessCertificate returns, for a concrete vertex set S of g, a
// certified spokesman selection over the induced framework graph: the
// returned Selection's Unique field lower-bounds max_{S'⊆S} |Γ¹_S(S')|, and
// the selected subset is reported as g-vertex ids.
func WirelessCertificate(g *Graph, S []int, trials int, r *RNG) (Selection, []int) {
	b, _ := InducedBipartite(g, S)
	sel := spokesman.Best(b, trials, r)
	verts := make([]int, len(sel.Subset))
	for i, u := range sel.Subset {
		verts[i] = S[u]
	}
	return sel, verts
}

// --- Spokesman election -----------------------------------------------------

// SpokesmanExhaustive returns the exact optimal spokesman set (|S| ≤ 24).
func SpokesmanExhaustive(b *Bipartite) (Selection, error) { return spokesman.Exhaustive(b) }

// SpokesmanDecay runs the Lemma 4.2/4.3 decay sampler.
func SpokesmanDecay(b *Bipartite, trials int, r *RNG) Selection {
	return spokesman.Decay(b, trials, r)
}

// SpokesmanGreedy runs the deterministic Lemma A.1 procedure
// (guarantee ≥ |N|/∆S).
func SpokesmanGreedy(b *Bipartite) Selection { return spokesman.GreedyUnique(b) }

// SpokesmanPartition runs Procedure Partition per Lemma A.3
// (guarantee ≥ |N|/(8δ)).
func SpokesmanPartition(b *Bipartite) Selection { return spokesman.PartitionSelect(b) }

// SpokesmanRecursive runs the near-optimal recursive selector of Lemma A.13
// (guarantee ≥ |N|/(9·log 2δ)).
func SpokesmanRecursive(b *Bipartite) Selection { return spokesman.PartitionRecursive(b) }

// SpokesmanBest runs the full portfolio and returns the best certified
// selection.
func SpokesmanBest(b *Bipartite, trials int, r *RNG) Selection {
	return spokesman.Best(b, trials, r)
}

// --- Worst-case constructions ------------------------------------------------

// CoreGraph builds the Lemma 4.4 binary-tree core graph on s leaves
// (s a power of two) and returns its bipartite form.
func CoreGraph(s int) (*Bipartite, error) {
	c, err := badgraph.NewCore(s)
	if err != nil {
		return nil, err
	}
	return c.B, nil
}

// GBad builds the Lemma 3.3 construction with unique expansion exactly
// 2β−∆.
func GBad(s, delta, beta int) (*Bipartite, error) {
	g, err := badgraph.NewGBad(s, delta, beta)
	if err != nil {
		return nil, err
	}
	return g.B, nil
}

// GeneralizedCore builds the Lemma 4.6 core with degree budget ∆* and
// target expansion β*, returning the graph and its achieved expansion.
func GeneralizedCore(deltaStar int, betaStar float64) (*Bipartite, float64, error) {
	e, err := badgraph.GeneralizedCore(deltaStar, betaStar)
	if err != nil {
		return nil, 0, err
	}
	return e.B, e.Beta(), nil
}

// WorstCaseExpander plugs a generalized core onto the expander g (Section
// 4.3.3), returning the combined graph and the witness set S* whose
// wireless expansion is provably small.
func WorstCaseExpander(g *Graph, beta, eps float64, r *RNG) (*Graph, []int, error) {
	wc, err := badgraph.NewWorstCase(g, beta, eps, r)
	if err != nil {
		return nil, nil, err
	}
	return wc.G, wc.WitnessSet(), nil
}

// BroadcastChain builds the Section 5 lower-bound graph: `hops` chained
// core copies behind a root. Returns the graph and the root vertex.
func BroadcastChain(hops, s int, r *RNG) (*Graph, int, error) {
	ch, err := badgraph.NewChain(hops, s, r)
	if err != nil {
		return nil, 0, err
	}
	return ch.G, ch.Root, nil
}

// --- Radio broadcast ---------------------------------------------------------

// Broadcast runs a protocol from the source until completion or maxRounds.
func Broadcast(g *Graph, source int, p Protocol, maxRounds int) (BroadcastResult, error) {
	return radio.Run(g, source, p, maxRounds)
}

// ProtocolFactory creates a fresh protocol instance for one Monte-Carlo
// trial from the trial's private random stream.
type ProtocolFactory = radio.Factory

// MonteCarloOptions configures BroadcastMonteCarlo (worker-pool width,
// seed, round budget, per-round trace depth, receive-rule model). Results
// are bit-identical at every worker count.
type MonteCarloOptions = radio.Options

// RadioModel is the pluggable per-round receive rule: the unit-disk
// collision rule of the paper, SINR/physical interference, probabilistic
// arc fading, multi-message broadcast, or adversarial jamming. Install one
// via MonteCarloOptions.Model; nil selects unit-disk and leaves the
// result's Model label empty.
type RadioModel = radio.Model

// Receive-rule model types, constructible directly when the spec-string
// form of ParseRadioModel is too coarse.
type (
	// UnitDiskModel is the paper's rule: a silent vertex receives iff
	// exactly one neighbor transmits.
	UnitDiskModel = radio.UnitDisk
	// SINRModel is physical interference with distance-free
	// degree-weighted power and a deterministic threshold.
	SINRModel = radio.SINR
	// FadingModel erases each delivered arc independently with
	// probability P from a pre-split per-round stream.
	FadingModel = radio.Fading
	// MultiMessageModel broadcasts M messages concurrently; completion
	// requires every vertex to hold all of them.
	MultiMessageModel = radio.MultiMessage
	// JamModel silences the Budget most valuable receivers each round.
	JamModel = radio.Jam
)

// ParseRadioModel parses a receive-rule spec such as "unit-disk", "sinr",
// "fading:0.3", "multi:4", or "jam:2,frontier" into a RadioModel with
// canonical parameter defaults.
func ParseRadioModel(spec string) (RadioModel, error) { return radio.ParseModel(spec) }

// MonteCarloResult aggregates a Monte-Carlo broadcast run: per-trial
// records, round-count summary and completion histogram, collision and
// transmission totals, and per-round informed-count quantiles.
type MonteCarloResult = radio.Result

// FloodProtocol returns the naive everyone-transmits protocol (deadlocks on
// C⁺).
func FloodProtocol() Protocol { return radio.Flood{} }

// DecayProtocol returns the Bar-Yehuda–Goldreich–Itai decay protocol.
func DecayProtocol(r *RNG) Protocol { return &radio.Decay{R: r} }

// RoundRobinProtocol returns the trivial collision-free protocol.
func RoundRobinProtocol() Protocol { return radio.RoundRobin{} }

// SpokesmanProtocol returns the centralized schedule that transmits a
// spokesman subset of the frontier each round — wireless expansion made
// operational.
func SpokesmanProtocol(r *RNG, trials int) Protocol {
	return &radio.Spokesman{R: r, Trials: trials}
}

// --- Paper bounds -----------------------------------------------------------

// Theorem11Bound returns the positive result's scale
// β/log(2·min{∆/β, ∆β}).
func Theorem11Bound(delta int, beta float64) float64 { return bounds.Theorem11(delta, beta) }

// UniqueLowerBound returns Lemma 3.2's floor 2β−∆ on unique expansion.
func UniqueLowerBound(delta int, beta float64) float64 { return bounds.Lemma32(delta, beta) }

// BroadcastLowerBound returns the Section 5 scale D·log2(n/D).
func BroadcastLowerBound(diameter, n int) float64 { return bounds.BroadcastLower(diameter, n) }

// --- Experiments -------------------------------------------------------------

// RunExperiment executes one reproduction experiment (E1–E16).
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentResult, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return e.Run(cfg)
}

// RunAllExperiments executes the full E1–E16 suite.
func RunAllExperiments(cfg ExperimentConfig) ([]*ExperimentResult, error) {
	return experiments.RunAll(cfg)
}

// ExperimentIDs lists the available experiment ids in index order.
func ExperimentIDs() []string {
	var out []string
	for _, e := range experiments.All {
		out = append(out, e.ID)
	}
	return out
}

type unknownExperimentError string

func (e unknownExperimentError) Error() string {
	return "wexp: unknown experiment " + string(e)
}

func errUnknownExperiment(id string) error { return unknownExperimentError(id) }
