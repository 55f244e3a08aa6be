package expansion

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"wexp/internal/bitset"
	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

// sameRandomized asserts two randomized results are bit-identical in every
// observable field: answer, witnesses, evaluation count, AND the full
// certificate (failure probability, CI ends, trial count) — the randomized
// tier's worker-invariance contract covers the certificate bytes, not just
// the value.
func sameRandomized(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Value != b.Value || a.ArgSet != b.ArgSet || a.ArgInner != b.ArgInner {
		t.Fatalf("%s: answer differs: (%v,%b,%b) vs (%v,%b,%b)",
			label, a.Value, a.ArgSet, a.ArgInner, b.Value, b.ArgSet, b.ArgInner)
	}
	if (a.Witness == nil) != (b.Witness == nil) ||
		(a.Witness != nil && a.Witness.Compare(b.Witness) != 0) {
		t.Fatalf("%s: witness differs", label)
	}
	if a.Sets != b.Sets {
		t.Fatalf("%s: evaluation counts differ: %d vs %d", label, a.Sets, b.Sets)
	}
	aj, err1 := json.Marshal(a.Cert)
	bj, err2 := json.Marshal(b.Cert)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: marshal: %v / %v", label, err1, err2)
	}
	if string(aj) != string(bj) {
		t.Fatalf("%s: certificate bytes differ:\n  %s\n  %s", label, aj, bj)
	}
}

// TestRandomizedWorkerInvariance: every randomized artifact — verdict,
// witness, certificate bytes, trial counts — must be byte-identical at 1,
// 2, and 8 workers. Trials draw from pre-split per-trial streams and all
// planned trials always run, so scheduling is invisible.
func TestRandomizedWorkerInvariance(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		obj  Objective
		opt  RandOptions
	}{
		{"er24-ordinary", gen.ErdosRenyi(24, 0.2, rng.New(7)), ObjOrdinary,
			RandOptions{MaxK: 6, RunOpts: runopts.RunOpts{Seed: 1}}},
		{"er24-unique", gen.ErdosRenyi(24, 0.2, rng.New(7)), ObjUnique,
			RandOptions{MaxK: 6, RunOpts: runopts.RunOpts{Seed: 2}}},
		{"er80-big-ordinary", gen.ErdosRenyi(80, 0.1, rng.New(11)), ObjOrdinary,
			RandOptions{MaxK: 6, Samples: 64, RunOpts: runopts.RunOpts{Seed: 3}}},
		{"hypercube4-edge", gen.Hypercube(4), ObjEdge,
			RandOptions{MaxK: 6, RunOpts: runopts.RunOpts{Seed: 4}}},
	}
	for _, tc := range cases {
		opt := tc.opt
		opt.Workers = 1
		base, err := Randomized(tc.g, tc.obj, opt)
		if err != nil {
			t.Fatalf("%s: workers=1: %v", tc.name, err)
		}
		if base.Kernel != "randomized-ppsz" {
			t.Fatalf("%s: kernel = %s, want randomized-ppsz", tc.name, base.Kernel)
		}
		for _, w := range []int{2, 8} {
			opt.Workers = w
			r, err := Randomized(tc.g, tc.obj, opt)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", tc.name, w, err)
			}
			sameRandomized(t, tc.name, base, r)
		}
	}
}

// TestRandomizedMatchesExactCorpus is the differential acceptance gate: on
// every n ≤ 24 corpus instance, the randomized verdict must agree with the
// exact branch-and-bound oracle, and the certificate must be internally
// consistent (CILow ≤ Value = CIHigh, FailureProb within target). The run
// is deterministic (fixed seeds), so agreement here is agreement forever.
func TestRandomizedMatchesExactCorpus(t *testing.T) {
	r := rng.New(1234)
	corpus := []struct {
		name string
		g    *graph.Graph
	}{
		{"complete8", gen.Complete(8)},
		{"cycle16", gen.Cycle(16)},
		{"hypercube4", gen.Hypercube(4)},
		{"grid4x5", gen.Grid(4, 5)},
		{"tree4", gen.CompleteBinaryTree(4)},
		{"barbell8", gen.Barbell(8)},
		{"er18", gen.ErdosRenyi(18, 0.25, r)},
		{"er22", gen.ErdosRenyi(22, 0.2, r)},
		{"er24-sparse", gen.ErdosRenyi(24, 0.12, r)},
		{"er24-dense", gen.ErdosRenyi(24, 0.35, r)},
	}
	for _, tc := range corpus {
		n := tc.g.N()
		maxK := n / 3
		if maxK < 2 {
			maxK = 2
		}
		for _, obj := range []Objective{ObjOrdinary, ObjUnique, ObjEdge} {
			ex, err := Exact(tc.g, obj, Options{MaxK: maxK})
			if err != nil {
				t.Fatalf("%s/%v: exact: %v", tc.name, obj, err)
			}
			rd, err := Randomized(tc.g, obj, RandOptions{MaxK: maxK,
				RunOpts: runopts.RunOpts{Seed: 99}})
			if err != nil {
				t.Fatalf("%s/%v: randomized: %v", tc.name, obj, err)
			}
			if rd.Value != ex.Value {
				t.Fatalf("%s/%v: randomized %v != exact %v (certificate %+v)",
					tc.name, obj, rd.Value, ex.Value, rd.Cert)
			}
			c := rd.Cert
			if c.Kind != CertCertified && c.Kind != CertExact {
				t.Fatalf("%s/%v: certificate kind %q", tc.name, obj, c.Kind)
			}
			if c.Kind == CertCertified {
				if c.FailureProb > defaultRandFailure {
					t.Fatalf("%s/%v: failure %g exceeds target %g",
						tc.name, obj, c.FailureProb, defaultRandFailure)
				}
				if c.Trials <= 0 {
					t.Fatalf("%s/%v: certified with zero trials", tc.name, obj)
				}
			}
			if c.CIHigh != rd.Value || c.CILow > rd.Value {
				t.Fatalf("%s/%v: CI [%v,%v] inconsistent with value %v",
					tc.name, obj, c.CILow, c.CIHigh, rd.Value)
			}
		}
	}
}

// TestRandomizedExactWhenAllStrataSmall: when every cardinality fits the
// exhaustive cutoff the solver is a full enumeration and must say so —
// kind exact, zero failure, degenerate CI, and the exact engine's value.
func TestRandomizedExactWhenAllStrataSmall(t *testing.T) {
	g := gen.Hypercube(3) // C(8,k) ≤ 70 ≪ cutoff for all k
	for _, obj := range []Objective{ObjOrdinary, ObjUnique, ObjWireless, ObjEdge} {
		ex, err := Exact(g, obj, Options{Alpha: 0.5})
		if err != nil {
			t.Fatalf("%v: exact: %v", obj, err)
		}
		rd, err := Randomized(g, obj, RandOptions{Alpha: 0.5})
		if err != nil {
			t.Fatalf("%v: randomized: %v", obj, err)
		}
		if rd.Cert.Kind != CertExact {
			t.Fatalf("%v: kind = %q, want exact", obj, rd.Cert.Kind)
		}
		if rd.Cert.FailureProb != 0 || rd.Cert.Trials != 0 {
			t.Fatalf("%v: exhaustive result carries randomness: %+v", obj, rd.Cert)
		}
		if rd.Value != ex.Value || rd.ArgSet != ex.ArgSet {
			t.Fatalf("%v: (%v,%b) != exact (%v,%b)", obj, rd.Value, rd.ArgSet, ex.Value, ex.ArgSet)
		}
		if rd.Cert.CILow != rd.Value || rd.Cert.CIHigh != rd.Value {
			t.Fatalf("%v: exact CI should collapse to the value: %+v", obj, rd.Cert)
		}
	}
}

// TestRandomizedExhaustivePin pins the randomized tier's answers when
// every stratum is exhaustive — one search leaf per stratum, on both
// representations — at 1, 2 and 8 workers: Value, both witnesses, and
// Sets, which counts every set of every stratum, whether evaluated or
// skipped by the per-set floor.
func TestRandomizedExhaustivePin(t *testing.T) {
	type pin struct {
		sets         int
		value        float64
		witness      []int
		innerWitness []int
	}
	cases := []struct {
		name string
		g    *graph.Graph
		maxK int
		pins map[Objective]pin
	}{
		{"er16", gen.ErdosRenyi(16, 0.3, rng.New(16)), 4, map[Objective]pin{
			ObjOrdinary: {2516, 1.25, []int{1, 3, 7, 10}, nil},
			ObjUnique:   {2516, 0.25, []int{3, 4, 5, 9}, nil},
			ObjWireless: {2516, 1, []int{1, 3, 7, 10}, []int{7, 10}},
			ObjEdge:     {2516, 1.75, []int{0, 2, 4, 14}, nil},
		}},
		{"er70", gen.ErdosRenyi(70, 0.1, rng.New(70)), 1, map[Objective]pin{
			ObjOrdinary: {70, 3, []int{1}, nil},
			ObjUnique:   {70, 3, []int{1}, nil},
			ObjWireless: {70, 3, []int{1}, []int{1}},
			ObjEdge:     {70, 3, []int{1}, nil},
		}},
	}
	indices := func(s *bitset.Set) []int {
		if s == nil {
			return nil
		}
		return s.AppendIndices(nil)
	}
	for _, tc := range cases {
		for _, obj := range allObjectives {
			want := tc.pins[obj]
			for _, w := range []int{1, 2, 8} {
				rd, err := Randomized(tc.g, obj, RandOptions{MaxK: tc.maxK, RunOpts: runopts.RunOpts{Workers: w, Seed: 1}})
				if err != nil {
					t.Fatalf("%s %v: %v", tc.name, obj, err)
				}
				got := pin{rd.Sets, rd.Value, indices(rd.Witness), indices(rd.InnerWitness)}
				if rd.Cert.Kind != CertExact || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v w=%d: got %+v (%s), want %+v", tc.name, obj, w, got, rd.Cert.Kind, want)
				}
			}
		}
	}
}

// TestRandomizedFrontierN200: the acceptance instance — n=200, k ≤ 8, far
// past the exact frontier (the B&B refuses under the default budget) — must
// come back certified with failure_prob ≤ 1e-9 inside the default budget.
func TestRandomizedFrontierN200(t *testing.T) {
	g := gen.ErdosRenyi(200, 0.08, rng.New(200))
	// Past the exact frontier: branch-and-bound blows the default budget.
	if _, err := Exact(g, ObjOrdinary, Options{MaxK: 8}); !errors.Is(err, ErrBudget) {
		t.Fatalf("exact on n=200 k≤8 should exceed the default budget, got %v", err)
	}
	res, err := Randomized(g, ObjOrdinary, RandOptions{MaxK: 8,
		RunOpts: runopts.RunOpts{Seed: 42}})
	if err != nil {
		t.Fatalf("randomized within default budget: %v", err)
	}
	c := res.Cert
	if c.Kind != CertCertified {
		t.Fatalf("kind = %q, want certified", c.Kind)
	}
	if c.FailureProb <= 0 || c.FailureProb > 1e-9 {
		t.Fatalf("failure_prob = %g, want (0, 1e-9]", c.FailureProb)
	}
	if c.Trials == 0 || res.Sets == 0 {
		t.Fatalf("no work recorded: %+v sets=%d", c, res.Sets)
	}
	if res.Witness == nil || res.Witness.Count() == 0 {
		t.Fatal("missing witness")
	}
	if c.CILow > res.Value || c.CIHigh != res.Value {
		t.Fatalf("CI [%v,%v] inconsistent with value %v", c.CILow, c.CIHigh, res.Value)
	}
}

// TestRandomizedBudgetRefusal: an infeasible plan must refuse up front with
// an ErrBudget-wrapped error, like the flat exact paths.
func TestRandomizedBudgetRefusal(t *testing.T) {
	g := gen.ErdosRenyi(100, 0.2, rng.New(5))
	_, err := Randomized(g, ObjWireless, RandOptions{MaxK: 30,
		RunOpts: runopts.RunOpts{Budget: 1 << 10}})
	if err == nil {
		t.Fatal("2^10 budget accepted a wireless k≤30 plan")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err %v does not wrap ErrBudget", err)
	}
}

// TestRandomizedSeedSensitivity: different seeds may walk different trials
// but both runs must produce sound (witnessed) values; and the same seed
// must reproduce the result bit-for-bit across calls.
func TestRandomizedSeedSensitivity(t *testing.T) {
	g := gen.ErdosRenyi(80, 0.1, rng.New(17))
	a1, err := Randomized(g, ObjOrdinary, RandOptions{MaxK: 5, RunOpts: runopts.RunOpts{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Randomized(g, ObjOrdinary, RandOptions{MaxK: 5, RunOpts: runopts.RunOpts{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sameRandomized(t, "same-seed", a1, a2)
	ex, err := Exact(g, ObjOrdinary, Options{MaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{2, 3} {
		b, err := Randomized(g, ObjOrdinary, RandOptions{MaxK: 5, RunOpts: runopts.RunOpts{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		if b.Value < ex.Value {
			t.Fatalf("seed %d: randomized %v below exact %v — witnessed upper bound broken",
				seed, b.Value, ex.Value)
		}
	}
}
