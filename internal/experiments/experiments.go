// Package experiments implements the reproduction harness: one registered
// Spec per experiment (E1–E16), each regenerating the measured
// counterpart of a claim from the paper and checking it.
//
// Experiments run through a sharded job engine (see engine.go): every Spec
// declares its parameter grid as deterministic shards, the engine fans them
// over a worker pool with pre-split RNG streams and merges outputs in shard
// index order, so results — including the emitted JSON artifacts — are
// bit-identical at every worker count and across checkpoint/resume
// boundaries.
package experiments

import (
	"fmt"

	"wexp/internal/table"
)

// Config controls an experiment run.
type Config struct {
	Seed   uint64 `json:"seed"`
	Quick  bool   `json:"quick"`  // reduced parameter grids (used by `go test`)
	Trials int    `json:"trials"` // per-point repetitions for randomized measurements (0 = default)
}

func (c Config) trials(def, quickDef int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return quickDef
	}
	return def
}

// Result is the outcome of one experiment.
type Result struct {
	ID       string
	Title    string
	PaperRef string
	Tables   []*table.Table
	Pass     bool
	Notes    []string
}

func (r *Result) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) failf(format string, args ...interface{}) {
	r.Pass = false
	r.note("FAIL: "+format, args...)
}

// Text renders the full result as plain text.
func (r *Result) Text() string {
	out := fmt.Sprintf("%s — %s (%s)\n", r.ID, r.Title, r.PaperRef)
	for _, t := range r.Tables {
		out += t.Text() + "\n"
	}
	for _, n := range r.Notes {
		out += n + "\n"
	}
	if r.Pass {
		out += "RESULT: PASS\n"
	} else {
		out += "RESULT: FAIL\n"
	}
	return out
}

// Markdown renders the full result as Markdown (for EXPERIMENTS.md).
func (r *Result) Markdown() string {
	out := fmt.Sprintf("## %s — %s\n\n*Paper reference: %s.*\n\n", r.ID, r.Title, r.PaperRef)
	for _, t := range r.Tables {
		out += t.Markdown() + "\n"
	}
	for _, n := range r.Notes {
		out += "- " + n + "\n"
	}
	if r.Pass {
		out += "\n**Result: PASS**\n"
	} else {
		out += "\n**Result: FAIL**\n"
	}
	return out
}

// All lists every experiment Spec in index order — the registry.
var All = []*Spec{
	SpecE1, SpecE2, SpecE3, SpecE4, SpecE5, SpecE6, SpecE7,
	SpecE8, SpecE9, SpecE10, SpecE11, SpecE12, SpecE13, SpecE14,
	SpecE15, SpecE16,
}

// ByID returns the registered spec with the given ID.
func ByID(id string) (*Spec, bool) {
	for _, s := range All {
		if s.ID == id {
			return s, true
		}
	}
	return nil, false
}

// Select resolves a list of experiment IDs against the registry, in the
// order given.
func Select(ids []string) ([]*Spec, error) {
	var out []*Spec
	for _, id := range ids {
		s, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		out = append(out, s)
	}
	return out, nil
}

// RunAll executes every experiment with the given config through the
// engine at default options.
func RunAll(cfg Config) ([]*Result, error) {
	rep, err := Run(All, cfg, Options{})
	if err != nil {
		return rep.Results, err
	}
	return rep.Results, nil
}
