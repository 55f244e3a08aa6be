package radio

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
	"wexp/internal/stats"
)

// Factory creates a fresh protocol instance for one Monte-Carlo trial.
// The supplied generator is the trial's private random stream; protocols
// must draw all randomness from it so trials are independent and the
// whole run is reproducible from Options.Seed alone.
type Factory func(r *rng.RNG) Protocol

// DefaultMaxRounds is the per-trial round budget when Options.MaxRounds
// is zero.
const DefaultMaxRounds = 1_000_000

// DefaultTraceRounds is the per-round summary depth when
// Options.TraceRounds is zero: informed-count quantiles are reported for
// rounds 0..DefaultTraceRounds (trials that finish earlier contribute
// their final count to later rounds).
const DefaultTraceRounds = 1024

// Options configures a Monte-Carlo run. The zero value of every field
// selects a sensible default.
//
// The common run-control knobs are the embedded runopts.RunOpts: Workers
// is the trial pool width (results are bit-identical at every width —
// trial RNG streams are pre-split in index order and aggregation is by
// trial index, so scheduling is invisible); Seed seeds the run, every
// trial deriving its stream from it; Budget is ignored (the per-trial
// bound is MaxRounds, in rounds rather than abstract work units).
type Options struct {
	runopts.RunOpts

	// MaxRounds is the per-trial round budget (0 = DefaultMaxRounds).
	MaxRounds int
	// TraceRounds caps the per-round informed-count summaries (0 =
	// DefaultTraceRounds, negative = none). Totals and per-trial records
	// always cover the full run regardless of this cap.
	TraceRounds int
	// Model selects the per-round receive rule (nil = UnitDisk, with
	// Result.Model left empty so the serialized form matches runs
	// predating the Model subsystem). Each trial gets a private fork whose
	// salt is pre-split from a dedicated stream, so trial RNG streams for
	// protocols are unchanged and aggregates stay bit-identical at any
	// worker count.
	Model Model
	// Ctx, when non-nil, cancels the run: workers observe it at trial
	// boundaries and MonteCarlo returns Ctx.Err(). A nil Ctx means run to
	// completion.
	Ctx context.Context
}

// TrialResult is the per-trial record of a Monte-Carlo run.
type TrialResult struct {
	Trial         int  `json:"trial"`
	Rounds        int  `json:"rounds"`
	Completed     bool `json:"completed"`
	InformedCount int  `json:"informed"`
	Collisions    int  `json:"collisions"`
	Transmissions int  `json:"transmissions"`
}

// RoundSummary is the cross-trial distribution of informed counts after a
// given round. Trials that completed (or hit the budget) earlier
// contribute their final informed count.
type RoundSummary struct {
	Round  int     `json:"round"`
	Mean   float64 `json:"mean"`
	P10    float64 `json:"p10"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Result aggregates a Monte-Carlo run. Every field is a deterministic
// function of (graph, source, factory, trials, Options.Seed,
// Options.MaxRounds, Options.TraceRounds) — the worker count never shows.
type Result struct {
	Protocol string `json:"protocol"`
	// Model is the canonical receive-rule name; empty when Options.Model
	// is nil, so the serialized form of unit-disk runs is unchanged.
	Model     string `json:"model,omitempty"`
	Trials    int    `json:"trials"`
	Completed int    `json:"completed"` // trials that met the model's completion condition

	// Rounds summarizes per-trial round counts over all trials (budget-
	// capped trials contribute MaxRounds).
	Rounds stats.Summary `json:"rounds"`
	// CompletionHist bins the completion rounds of completed trials;
	// nil when no trial completed.
	CompletionHist *stats.Histogram `json:"completion_hist,omitempty"`

	TotalCollisions    int64 `json:"total_collisions"`
	TotalTransmissions int64 `json:"total_transmissions"`

	// InformedByRound holds per-round informed-count summaries up to the
	// trace cap (see Options.TraceRounds).
	InformedByRound []RoundSummary `json:"informed_by_round,omitempty"`

	// PerTrial holds the individual trial records in trial order.
	PerTrial []TrialResult `json:"per_trial"`
}

// MonteCarlo fans `trials` independent seeded broadcast executions of the
// protocol over a deterministic worker pool and aggregates them. The
// adjacency rows are built once and shared read-only by every trial; each
// trial gets a pre-split RNG stream, so the result is bit-identical at
// any Options.Workers.
func MonteCarlo(g *graph.Graph, source int, factory Factory, trials int, opt Options) (*Result, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("radio: trials must be positive, got %d", trials)
	}
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("radio: source %d out of range [0,%d)", source, g.N())
	}
	maxRounds := opt.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	traceRounds := opt.TraceRounds
	if traceRounds == 0 {
		traceRounds = DefaultTraceRounds
	}
	if traceRounds > maxRounds {
		traceRounds = maxRounds
	}
	rows := BuildAdjRows(g)
	model := opt.Model
	if model == nil {
		model = UnitDisk{}
	}

	// Pre-split one stream per trial in index order: the only RNG
	// consumption that depends on anything but the trial index.
	parent := rng.New(opt.Seed)
	rngs := make([]*rng.RNG, trials)
	for i := range rngs {
		rngs[i] = parent.Split()
	}

	// Per-trial model salts come from their own stream so the model never
	// perturbs the protocol streams above.
	ms := rng.New(opt.Seed ^ rng.Salt("radio/model"))
	modelSalts := make([]uint64, trials)
	for i := range modelSalts {
		modelSalts[i] = ms.Uint64()
	}

	type trialOut struct {
		res      TrialResult
		informed []int32 // informed count after round t, t ≤ traceRounds
		err      error
		name     string
	}
	outs := make([]trialOut, trials)

	// Trial arenas: a Network (with its informed/informed-at arrays and
	// lazily built accumulators) plus a transmit slice together cost
	// O(n + m') words at large n, so allocating them per trial would make
	// peak memory grow with the trial count between GC cycles. The pool
	// bounds steady state to O(workers) arenas: each worker recycles the
	// arena it just finished via resetFor.
	type trialArena struct {
		net      *Network
		transmit []bool
	}
	var arenas sync.Pool
	runTrial := func(i int) {
		p := factory(rngs[i])
		var arena *trialArena
		if x := arenas.Get(); x != nil {
			arena = x.(*trialArena)
			arena.net.resetFor(source)
		} else {
			net, err := NewNetworkRows(g, source, rows)
			if err != nil {
				outs[i].err = err
				return
			}
			arena = &trialArena{net: net, transmit: make([]bool, g.N())}
		}
		net := arena.net
		net.UseModel(model, modelSalts[i])
		var trace []int32
		if traceRounds > 0 {
			trace = append(trace, int32(net.InformedCount))
		}
		transmit := arena.transmit
		for net.Round < maxRounds && !net.Done() {
			clear(transmit)
			p.Transmitters(net, transmit)
			net.Step(transmit)
			if net.Round <= traceRounds {
				trace = append(trace, int32(net.InformedCount))
			}
		}
		outs[i] = trialOut{
			res: TrialResult{
				Trial:         i,
				Rounds:        net.Round,
				Completed:     net.Done(),
				InformedCount: net.InformedCount,
				Collisions:    net.Collisions,
				Transmissions: net.Transmissions,
			},
			informed: trace,
			name:     p.Name(),
		}
		arenas.Put(arena)
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	cancelled := func() bool { return opt.Ctx != nil && opt.Ctx.Err() != nil }
	if workers <= 1 {
		for i := 0; i < trials; i++ {
			if cancelled() {
				return nil, opt.Ctx.Err()
			}
			runTrial(i)
		}
	} else {
		var cursor atomic.Int64
		cursor.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !cancelled() {
					i := int(cursor.Add(1))
					if i >= trials {
						return
					}
					runTrial(i)
				}
			}()
		}
		wg.Wait()
		if cancelled() {
			return nil, opt.Ctx.Err()
		}
	}

	// Deterministic merge: everything below iterates in trial index order.
	res := &Result{Trials: trials}
	if opt.Model != nil {
		res.Model = opt.Model.Name()
	}
	rounds := make([]float64, 0, trials)
	var completion []float64
	maxTrace := 0
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		t := outs[i].res
		res.Protocol = outs[i].name
		res.PerTrial = append(res.PerTrial, t)
		rounds = append(rounds, float64(t.Rounds))
		res.TotalCollisions += int64(t.Collisions)
		res.TotalTransmissions += int64(t.Transmissions)
		if t.Completed {
			res.Completed++
			completion = append(completion, float64(t.Rounds))
		}
		if len(outs[i].informed) > maxTrace {
			maxTrace = len(outs[i].informed)
		}
	}
	res.Rounds = stats.Summarize(rounds)
	if len(completion) > 0 {
		hi := stats.Max(completion)
		if hi < 1 {
			hi = 1
		}
		bins := 16
		if len(completion) < bins {
			bins = len(completion)
		}
		res.CompletionHist = stats.NewHistogram(completion, 0, hi, bins)
	}
	if maxTrace > 0 {
		sample := make([]float64, trials)
		for t := 0; t < maxTrace; t++ {
			for i := range outs {
				tr := outs[i].informed
				if t < len(tr) {
					sample[i] = float64(tr[t])
				} else {
					// Trial ended earlier: its informed count is final.
					sample[i] = float64(tr[len(tr)-1])
				}
			}
			qs := stats.Quantiles(sample, 0.1, 0.5, 0.9)
			res.InformedByRound = append(res.InformedByRound, RoundSummary{
				Round:  t,
				Mean:   stats.Mean(sample),
				P10:    qs[0],
				Median: qs[1],
				P90:    qs[2],
				Min:    stats.Min(sample),
				Max:    stats.Max(sample),
			})
		}
	}
	return res, nil
}
