// Package wexp is a Go implementation of "Wireless Expanders" (Attali,
// Parter, Peleg, Solomon — SPAA 2018, arXiv:1802.07177).
//
// A graph G is an (αw, βw)-wireless expander if every vertex set S with
// |S| ≤ αw·|V| contains a subset S' whose S-excluding unique neighborhood
// Γ¹_S(S') — the vertices outside S adjacent to exactly one member of S' —
// has size at least βw·|S|. Wireless expansion sits between ordinary vertex
// expansion β and unique-neighbor expansion βu (β ≥ βw ≥ βu) and is exactly
// the property that makes a radio network with collision semantics spread a
// message quickly: the subset S' can transmit simultaneously and each
// unique neighbor receives.
//
// The library provides:
//
//   - the graph and bipartite substrates (package internal/graph) with the
//     neighborhood operators Γ, Γ⁻, Γ¹, Γ¹_S of the paper's Section 2;
//   - exact and sampled measurement of β, βu, βw (internal/expansion),
//     including the spectral machinery of Lemma 3.1. The exact engine is a
//     branch-and-bound search over the prefix-decision tree: subtrees whose
//     objective lower bound exceeds a deterministic incumbent are cut
//     without being generated, which moves the exact frontier far past the
//     full-enumeration wall (n = 120 in about a second at a ≈ 99.8% prune
//     rate). The tree is partitioned into fixed-shape subproblems — a
//     function of the instance, never the worker count — so the value, the
//     witnesses, and every search counter are bit-identical at any pool
//     width; work is bounded by a caller-supplied budget (the typed
//     ErrBudget reports exhaustion) rather than a hard vertex limit;
//   - the paper's spokesman-election algorithms (internal/spokesman): the
//     Lemma 4.2 decay sampler, the Lemma 4.3 low-β reduction, and the
//     deterministic appendix procedures (greedy, Procedure Partition, the
//     recursive near-optimal selector, degree-class bucketing);
//   - the explicit worst-case constructions (internal/badgraph): Gbad
//     (Lemma 3.3), the binary-tree core graph (Lemma 4.4), the generalized
//     core (Lemmas 4.6–4.8), the plugged worst-case expander (Section
//     4.3.3), and the Section 5 broadcast-lower-bound chain;
//   - a radio-network simulator with the paper's collision rule and the
//     broadcast protocols it discusses (internal/radio);
//   - the closed-form bounds of every lemma (internal/bounds) and the
//     sharded, resumable experiment engine E1–E16 that regenerates each
//     claim with deterministic JSON artifacts (internal/experiments);
//   - the wexpd graph-analysis service (internal/service, cmd/wexpd): a
//     content-addressed graph store keyed by the canonical digest
//     (GraphDigest), a memoized byte-level result cache with singleflight
//     request coalescing, and a cancellable job engine — the engines'
//     bit-reproducibility is what makes responses cacheable and replicas
//     interchangeable. Start it with Serve or NewService.
//
// This package is the public facade: it re-exports the types and wraps the
// operations a downstream user needs, so examples and external code import
// only "wexp".
//
// # Context-first API
//
// Every operation takes a context.Context as its explicit first parameter
// and shares the embedded RunOpts run-control block (Workers, Budget,
// Seed). The unified entry point is
//
//	res, err := wexp.Expansion(ctx, g, wexp.ObjWireless, wexp.ExpansionOptions{
//	    RunOpts: wexp.RunOpts{Workers: 4},
//	    Alpha:   0.5,
//	})
//
// with per-objective shorthands OrdinaryExpansionWith, UniqueExpansionWith,
// WirelessExpansionWith, EdgeExpansionWith, MinBipartiteExpansionWith,
// ProfilesWith, AlphaSweepWith, BroadcastMonteCarloWith, and
// RunExperimentsWith. The pre-redesign names (OrdinaryExpansionOpts,
// UniqueExpansionOpts, WirelessExpansionOpts, MinBipartiteExpansionOpts,
// BroadcastMonteCarlo, RunExperiments) were removed.
// The exported surface is pinned to testdata/api/wexp.txt by
// TestAPISurfaceGolden; regenerate after an intentional change with
// `make api`.
package wexp
