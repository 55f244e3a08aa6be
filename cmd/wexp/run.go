package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"wexp/internal/bounds"
	"wexp/internal/expansion"
	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
	"wexp/internal/spokesman"
	"wexp/internal/table"
)

// Config is the full parameter set of one wexp invocation; main fills it
// from flags, tests construct it directly.
type Config struct {
	Family  string
	Size    int
	Load    string
	Alpha   float64
	Seed    uint64
	Trials  int
	Profile bool
	Budget  uint64
	Workers int
	Format  string
}

func defaultConfig() Config {
	return Config{
		Family: "hypercube",
		Size:   4,
		Alpha:  0.5,
		Seed:   1,
		Trials: 40,
		Format: "text",
	}
}

// measurement is one quantity row, feeding both the text table and the
// JSON document. Certificate states what the number is worth — exact
// proof, randomized certificate with explicit failure probability, or
// uncertified estimate — and is omitted on formula rows.
type measurement struct {
	Quantity    string                 `json:"quantity"`
	Value       string                 `json:"value"`
	Numeric     float64                `json:"numeric,omitempty"`
	Mode        string                 `json:"mode"`
	Notes       string                 `json:"notes,omitempty"`
	Certificate *expansion.Certificate `json:"certificate,omitempty"`
}

// profileRow is one row of the exact per-size expansion profile.
type profileRow struct {
	K        int     `json:"k"`
	Ordinary float64 `json:"beta"`
	Wireless float64 `json:"beta_w"`
	Unique   float64 `json:"beta_u"`
}

// wexpReport is the full JSON document.
type wexpReport struct {
	Family       string        `json:"family"`
	Size         int           `json:"size"`
	N            int           `json:"n"`
	M            int           `json:"m"`
	MaxDegree    int           `json:"max_degree"`
	AvgDegree    float64       `json:"avg_degree"`
	ArboricityLo int           `json:"arboricity_lo"`
	ArboricityHi int           `json:"arboricity_hi"`
	Alpha        float64       `json:"alpha"`
	Measurements []measurement `json:"measurements"`
	Profile      []profileRow  `json:"profile,omitempty"`
}

func run(cfg Config, w io.Writer) error {
	if cfg.Format != "text" && cfg.Format != "json" {
		return fmt.Errorf("unknown format %q (want text or json)", cfg.Format)
	}
	var g *graph.Graph
	family, size := cfg.Family, cfg.Size
	if cfg.Load != "" {
		f, err := os.Open(cfg.Load)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = graph.ReadEdgeList(f)
		if err != nil {
			return err
		}
		family, size = cfg.Load, g.N()
	} else {
		var err error
		g, err = gen.FromFamily(gen.Family(family), size)
		if err != nil {
			return err
		}
	}
	r := rng.New(cfg.Seed)
	rep := wexpReport{
		Family: family, Size: size,
		N: g.N(), M: g.M(), MaxDegree: g.MaxDegree(), AvgDegree: g.AvgDegree(),
		Alpha: cfg.Alpha,
	}
	rep.ArboricityLo, rep.ArboricityHi = g.ArboricityEstimate()

	add := func(quantity string, numeric float64, value, mode, notes string, cert *expansion.Certificate) {
		if value == "" {
			value = fmt.Sprintf("%g", numeric)
		}
		rep.Measurements = append(rep.Measurements, measurement{
			Quantity: quantity, Value: value, Numeric: numeric, Mode: mode, Notes: notes,
			Certificate: cert,
		})
	}

	opt := expansion.Options{RunOpts: runopts.RunOpts{Budget: cfg.Budget, Workers: cfg.Workers}, Alpha: cfg.Alpha}
	maxK := expansion.MaxSetSize(g.N(), cfg.Alpha)
	if maxK < 1 {
		return fmt.Errorf("α=%g admits no nonempty set on n=%d", cfg.Alpha, g.N())
	}
	// Three-tier fallback gate, per quantity: (1) the exact branch-and-bound
	// engine, which charges the budget as it searches instead of refusing up
	// front — instances far beyond the full-enumeration frontier still
	// complete when their search trees prune well; (2) on ErrBudget, the
	// randomized certified solver, whose answer carries an explicit failure
	// probability; (3) if the randomized plan is itself over budget (e.g.
	// the 2^k wireless oracle at large k), sampled estimates — a bracket for
	// βw, seeded upper bounds for β and βu. A blow-up on one quantity
	// degrades only that quantity.
	tryExact := func(obj expansion.Objective) (expansion.Result, bool, error) {
		res, err := expansion.Exact(g, obj, opt)
		if err == nil {
			return res, true, nil
		}
		if errors.Is(err, expansion.ErrBudget) {
			return expansion.Result{}, false, nil
		}
		return expansion.Result{}, false, err
	}
	ropt := expansion.RandOptions{
		RunOpts: runopts.RunOpts{Budget: cfg.Budget, Workers: cfg.Workers, Seed: cfg.Seed},
		Alpha:   cfg.Alpha,
	}
	tryCertified := func(obj expansion.Objective) (expansion.Result, bool, error) {
		res, err := expansion.Randomized(g, obj, ropt)
		if err == nil {
			return res, true, nil
		}
		if errors.Is(err, expansion.ErrBudget) {
			return expansion.Result{}, false, nil
		}
		return expansion.Result{}, false, err
	}
	searchNotes := func(res expansion.Result) string {
		return fmt.Sprintf("%d sets, %d pruned, %d visited", res.Sets, res.Pruned, res.Visited)
	}
	certNotes := func(res expansion.Result) string {
		c := res.Cert
		if c.Kind == expansion.CertExact {
			return fmt.Sprintf("exhaustive strata, %d sets", res.Sets)
		}
		return fmt.Sprintf("%d trials, failure ≤ %.3g, value ∈ [%.4g, %.4g]",
			c.Trials, c.FailureProb, c.CILow, c.CIHigh)
	}
	estimateCert := func() *expansion.Certificate {
		return &expansion.Certificate{Kind: expansion.CertEstimate}
	}

	rb, okB, err := tryExact(expansion.ObjOrdinary)
	if err != nil {
		return err
	}
	betaScale := 0.0
	// betaUpper is a sound upper bound on β whenever haveBetaUpper: exact or
	// randomized values are witnessed by a concrete set, so both qualify.
	betaUpper, haveBetaUpper := 0.0, false
	if okB {
		add("β (ordinary)", rb.Value, "", "exact", searchNotes(rb), &rb.Cert)
		betaScale, betaUpper, haveBetaUpper = rb.Value, rb.Value, true
	} else if rcb, okC, cerr := tryCertified(expansion.ObjOrdinary); cerr != nil {
		return cerr
	} else if okC {
		add("β (ordinary)", rcb.Value, "", "certified", certNotes(rcb), &rcb.Cert)
		betaScale, betaUpper, haveBetaUpper = rcb.Value, rcb.Value, true
	} else {
		est := expansion.EstimateOrdinary(g, cfg.Alpha, cfg.Trials, r)
		add("β (ordinary)", est.Bound, "", "upper bound",
			fmt.Sprintf("%d sets sampled", est.Sampled), estimateCert())
		betaScale = est.Bound
	}

	rw, okW, err := tryExact(expansion.ObjWireless)
	if err != nil {
		return err
	}
	if okW {
		add("βw (wireless)", rw.Value, "", "exact", searchNotes(rw), &rw.Cert)
	} else if rcw, okC, cerr := tryCertified(expansion.ObjWireless); cerr != nil {
		return cerr
	} else if okC {
		add("βw (wireless)", rcw.Value, "", "certified", certNotes(rcw), &rcw.Cert)
	} else {
		lower, upper := wirelessBracket(g, cfg.Alpha, cfg.Trials, r)
		notes := "family lower / sampled upper"
		if haveBetaUpper {
			// Obs 2.1 certifies βw ≤ β, so any sound upper bound on β
			// tightens the sampled upper bound; the lower bound holds only
			// over the sampled family.
			if betaUpper < upper {
				upper = betaUpper
			}
			if lower > upper {
				lower = upper
			}
			notes = "family lower / certified upper (βw search over budget)"
		}
		add("βw (wireless)", 0, fmt.Sprintf("[%.4g, %.4g]", lower, upper), "bracket", notes, estimateCert())
	}

	ru, okU, err := tryExact(expansion.ObjUnique)
	if err != nil {
		return err
	}
	if okU {
		add("βu (unique)", ru.Value, "", "exact", "Obs 2.1: β ≥ βw ≥ βu", &ru.Cert)
	} else if rcu, okC, cerr := tryCertified(expansion.ObjUnique); cerr != nil {
		return cerr
	} else if okC {
		add("βu (unique)", rcu.Value, "", "certified", certNotes(rcu), &rcu.Cert)
	} else {
		estU := expansion.EstimateUnique(g, cfg.Alpha, cfg.Trials, r)
		add("βu (unique)", estU.Bound, "", "upper bound", "", estimateCert())
	}

	scaleNotes := ""
	if okB && okW {
		scaleNotes = "βw = Ω(β/log 2·min{∆/β, ∆β})"
	}
	add("Thm 1.1 scale", bounds.Theorem11(g.MaxDegree(), betaScale), "", "formula", scaleNotes, nil)

	if cfg.Profile {
		tp, err := expansion.ProfilesOpts(g, maxK, opt)
		if err != nil {
			return fmt.Errorf("profile unavailable: %w", err)
		}
		for k := 1; k <= tp.MaxK; k++ {
			rep.Profile = append(rep.Profile, profileRow{
				K: k, Ordinary: tp.Ordinary[k], Wireless: tp.Wireless[k], Unique: tp.Unique[k],
			})
		}
	}

	if cfg.Format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(w, "%s(%d): n=%d m=%d ∆=%d avg=%.2f arboricity∈[%d,%d]\n",
		family, size, g.N(), g.M(), g.MaxDegree(), g.AvgDegree(),
		rep.ArboricityLo, rep.ArboricityHi)
	tb := table.New("Expansion measurements", "quantity", "value", "mode", "notes")
	for _, m := range rep.Measurements {
		tb.AddRow(m.Quantity, m.Value, m.Mode, m.Notes)
	}
	if _, err := io.WriteString(w, tb.Text()); err != nil {
		return err
	}
	if cfg.Profile {
		pt := table.New("Exact per-size profile (min over sets of each size)",
			"|S|", "β", "βw", "βu")
		for _, row := range rep.Profile {
			pt.AddRow(row.K, row.Ordinary, row.Wireless, row.Unique)
		}
		pt.Note = "Observation 2.1 holds pointwise: β ≥ βw ≥ βu in every row."
		if _, err := io.WriteString(w, pt.Text()); err != nil {
			return err
		}
	}
	return nil
}

// wirelessBracket samples an adversarial set family and brackets βw over
// it with a certified spokesman lower bound per set.
func wirelessBracket(g *graph.Graph, alpha float64, trials int, r *rng.RNG) (lower, upper float64) {
	sets := expansion.SampleSets(g, alpha, trials, r)
	lower, upper, _ = expansion.WirelessBounds(g, sets, func(b *graph.Bipartite) int {
		return spokesman.Best(b, 12, r).Unique
	})
	return lower, upper
}
