package wexp

import (
	"context"

	"wexp/internal/expansion"
	"wexp/internal/experiments"
	"wexp/internal/radio"
	"wexp/internal/runopts"
)

// This file is the context-first facade: every function takes a
// context.Context as its first parameter and threads it into the engine it
// drives, superseding any Ctx field carried inside the options value.

// RunOpts bundles the run-control knobs shared by every engine in the
// module — expansion.Options, radio.Options, and experiments.Options all
// embed it, so the worker-pool width, work budget, and seed are spelled
// identically everywhere. Each engine documents which of the three knobs
// it consumes; results are bit-identical at every Workers value by
// construction throughout.
type RunOpts = runopts.RunOpts

// Objective selects which expansion quantity the exact engine computes.
type Objective = expansion.Objective

// The expansion objectives of the paper (plus the classical edge variant):
// β (ordinary vertex expansion), βw (wireless), βu (unique-neighbor), and
// the Cheeger edge expansion h.
const (
	ObjOrdinary = expansion.ObjOrdinary
	ObjWireless = expansion.ObjWireless
	ObjUnique   = expansion.ObjUnique
	ObjEdge     = expansion.ObjEdge
)

// BipartiteExpansionResult reports an exact bipartite (or edge) expansion
// value with its witness subset and the search-effort counters of the
// branch-and-bound engine.
type BipartiteExpansionResult = expansion.BipartiteResult

// Certificate states what an expansion Result's value is worth: an exact
// proof, a randomized certificate with an explicit failure probability, or
// an uncertified estimate. It marshals into response bodies verbatim.
type Certificate = expansion.Certificate

// CertKind enumerates the certificate kinds.
type CertKind = expansion.CertKind

// The three certificate kinds, from strongest to weakest.
const (
	CertExact     = expansion.CertExact
	CertCertified = expansion.CertCertified
	CertEstimate  = expansion.CertEstimate
)

// RandomizedOptions parameterizes the randomized certified solver: the
// shared run knobs plus the target failure probability and the per-stratum
// sampling/search effort. The zero value selects sound defaults
// (failure ≤ 1e-9).
type RandomizedOptions = expansion.RandOptions

// ErrBudget is the sentinel wrapped by every budget-exceeded error from
// the exact engines; test with errors.Is to distinguish "raise the budget
// or shrink the instance" from hard input errors.
var ErrBudget = expansion.ErrBudget

// Expansion is the unified exact solver: it computes the objective obj on
// g under opt, honouring ctx for cancellation (ctx supersedes opt.Ctx).
// It runs the deterministic branch-and-bound search — bit-identical
// results, witnesses, and search counters at every opt.Workers.
func Expansion(ctx context.Context, g *Graph, obj Objective, opt ExpansionOptions) (ExpansionResult, error) {
	opt.Ctx = ctx
	return expansion.Exact(g, obj, opt)
}

// OrdinaryExpansionWith computes β(G) exactly under opt, honouring ctx.
func OrdinaryExpansionWith(ctx context.Context, g *Graph, opt ExpansionOptions) (ExpansionResult, error) {
	return Expansion(ctx, g, ObjOrdinary, opt)
}

// UniqueExpansionWith computes βu(G) exactly under opt, honouring ctx.
func UniqueExpansionWith(ctx context.Context, g *Graph, opt ExpansionOptions) (ExpansionResult, error) {
	return Expansion(ctx, g, ObjUnique, opt)
}

// WirelessExpansionWith computes βw(G) exactly under opt, honouring ctx.
func WirelessExpansionWith(ctx context.Context, g *Graph, opt ExpansionOptions) (ExpansionResult, error) {
	return Expansion(ctx, g, ObjWireless, opt)
}

// RandomizedExpansionWith runs the PPSZ-style randomized certified solver
// on obj under opt, honouring ctx (which supersedes opt.Ctx). The returned
// value is always a witnessed upper bound; the certificate brackets it from
// below with an explicit failure probability (or proves it exact when every
// cardinality stratum fits the exhaustive cutoff). Results, certificates,
// and trial counts are bit-identical at every opt.Workers.
func RandomizedExpansionWith(ctx context.Context, g *Graph, obj Objective, opt RandomizedOptions) (ExpansionResult, error) {
	opt.Ctx = ctx
	return expansion.Randomized(g, obj, opt)
}

// EdgeExpansionWith computes the Cheeger constant h(G) exactly under opt,
// honouring ctx, and returns the full witness record (EdgeExpansion keeps
// the plain-value convenience form).
func EdgeExpansionWith(ctx context.Context, g *Graph, opt ExpansionOptions) (BipartiteExpansionResult, error) {
	opt.Ctx = ctx
	return expansion.EdgeExpansionOpts(g, opt)
}

// MinBipartiteExpansionWith computes the exact bipartite vertex expansion
// min over nonempty S' ⊆ S of |Γ(S')|/|S'| under opt, honouring ctx, and
// returns the full witness record. opt.MaxK caps the subset size, which
// makes large S sides affordable through the branch-and-bound search.
func MinBipartiteExpansionWith(ctx context.Context, b *Bipartite, opt ExpansionOptions) (BipartiteExpansionResult, error) {
	opt.Ctx = ctx
	return expansion.MinBipartiteExpansionOpts(b, opt)
}

// ProfilesWith computes the per-size minima of β, βw, βu for every set
// size 1..maxK under opt, honouring ctx.
func ProfilesWith(ctx context.Context, g *Graph, maxK int, opt ExpansionOptions) (*TripleProfile, error) {
	opt.Ctx = ctx
	return expansion.ProfilesOpts(g, maxK, opt)
}

// AlphaSweepWith evaluates β, βw, βu exactly at a grid of α values under
// opt, honouring ctx.
func AlphaSweepWith(ctx context.Context, g *Graph, alphas []float64, opt ExpansionOptions) ([]AlphaPoint, error) {
	opt.Ctx = ctx
	return expansion.AlphaSweepOpts(g, alphas, opt)
}

// BroadcastMonteCarloWith fans independent seeded broadcast trials of the
// protocol over a deterministic worker pool and aggregates per-round and
// per-trial statistics, honouring ctx (which supersedes opt.Ctx). The
// adjacency bitset rows are built once and shared by all trials; results
// are bit-identical at every opt.Workers.
func BroadcastMonteCarloWith(ctx context.Context, g *Graph, source int, factory ProtocolFactory, trials int, opt MonteCarloOptions) (*MonteCarloResult, error) {
	opt.Ctx = ctx
	return radio.MonteCarlo(g, source, factory, trials, opt)
}

// RunExperimentsWith executes the selected experiments (all of them when
// ids is empty) through the sharded job engine, honouring ctx (which
// supersedes opt.Ctx): each experiment's parameter grid is decomposed into
// deterministic shards, fanned over opt.Workers workers with pre-split RNG
// streams, and merged in index order — the report's artifacts are
// bit-identical at every worker count. When opt.OutDir is set, one JSON
// artifact per experiment plus a checksummed MANIFEST.json are written
// there; with opt.CheckpointDir and opt.Resume, an interrupted run
// continues from its completed shards.
func RunExperimentsWith(ctx context.Context, ids []string, cfg ExperimentConfig, opt ExperimentOptions) (*ExperimentRunReport, error) {
	opt.Ctx = ctx
	specs := experiments.All
	if len(ids) > 0 {
		var err error
		specs, err = experiments.Select(ids)
		if err != nil {
			return nil, err
		}
	}
	return experiments.Run(specs, cfg, opt)
}
