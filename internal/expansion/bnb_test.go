package expansion

import (
	"errors"
	"testing"

	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

// sameSearch asserts two branch-and-bound results are bit-identical in
// every observable field — answer, witnesses, and all four search-effort
// counters.
func sameSearch(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Value != b.Value || a.ArgSet != b.ArgSet || a.ArgInner != b.ArgInner {
		t.Fatalf("%s: answer differs: (%v,%b,%b) vs (%v,%b,%b)",
			label, a.Value, a.ArgSet, a.ArgInner, b.Value, b.ArgSet, b.ArgInner)
	}
	if (a.Witness == nil) != (b.Witness == nil) ||
		(a.Witness != nil && a.Witness.Compare(b.Witness) != 0) {
		t.Fatalf("%s: witness differs", label)
	}
	if a.Sets != b.Sets || a.Pruned != b.Pruned ||
		a.Visited != b.Visited || a.SubtreesPruned != b.SubtreesPruned {
		t.Fatalf("%s: counters differ: sets %d/%d pruned %d/%d visited %d/%d subtrees %d/%d",
			label, a.Sets, b.Sets, a.Pruned, b.Pruned,
			a.Visited, b.Visited, a.SubtreesPruned, b.SubtreesPruned)
	}
}

// TestBnbWorkerInvariance: the branch-and-bound search partitions the
// prefix-decision tree into subproblems that are a function of the
// instance alone, so Value, witnesses, AND the Sets/Pruned/Visited/
// SubtreesPruned counters must be bit-identical at every worker count.
func TestBnbWorkerInvariance(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		obj  Objective
		opt  Options
	}{
		{"hypercube4-ordinary", gen.Hypercube(4), ObjOrdinary, Options{Alpha: 0.5}},
		{"hypercube4-wireless", gen.Hypercube(4), ObjWireless, Options{Alpha: 0.5}},
		{"hypercube4-edge", gen.Hypercube(4), ObjEdge, Options{MaxK: 8}},
		{"er24-ordinary", gen.ErdosRenyi(24, 0.2, rng.New(7)), ObjOrdinary, Options{Alpha: 0.5}},
		{"er40-ordinary", gen.ErdosRenyi(40, 0.15, rng.New(9)), ObjOrdinary, Options{MaxK: 8}},
		{"er70-big-ordinary", gen.ErdosRenyi(70, 0.1, rng.New(11)), ObjOrdinary, Options{MaxK: 5}},
	}
	for _, tc := range cases {
		opt := tc.opt
		opt.Workers = 1
		base, err := Exact(tc.g, tc.obj, opt)
		if err != nil {
			t.Fatalf("%s: workers=1: %v", tc.name, err)
		}
		if base.Visited == 0 {
			t.Fatalf("%s: expected the branch-and-bound path (visited=0, kernel %s)",
				tc.name, base.Kernel)
		}
		for _, w := range []int{2, 8} {
			opt.Workers = w
			r, err := Exact(tc.g, tc.obj, opt)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", tc.name, w, err)
			}
			sameSearch(t, tc.name, base, r)
		}
	}
}

// TestBnbPruneSoundness: on a random corpus spanning densities and
// objectives, the branch-and-bound search must reproduce the test
// oracle's value and witness exactly — pruning may only skip sets that
// provably cannot improve the minimum — and its accounting must cover the
// full enumeration space: every candidate set is either evaluated or
// pruned (seed evaluations can only add to the left side).
func TestBnbPruneSoundness(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 12; trial++ {
		n := 10 + int(r.Uint64()%7) // 10..16
		p := 0.15 + 0.05*float64(trial%5)
		g := gen.ErdosRenyi(n, p, r)
		for _, obj := range []Objective{ObjOrdinary, ObjWireless, ObjUnique, ObjEdge} {
			bnb, err := Exact(g, obj, Options{MaxK: n / 2})
			if err != nil {
				t.Fatalf("trial %d n=%d obj=%v: %v", trial, n, obj, err)
			}
			oracle := oracleExact(g, obj, n/2, 1, false)
			if bnb.Value != oracle.Value || bnb.ArgSet != oracle.ArgSet {
				t.Fatalf("trial %d n=%d obj=%v: bnb (%v,%b) != oracle (%v,%b)",
					trial, n, obj, bnb.Value, bnb.ArgSet, oracle.Value, oracle.ArgSet)
			}
			if obj == ObjWireless && bnb.ArgInner != oracle.ArgInner {
				t.Fatalf("trial %d n=%d: inner witness %b != %b", trial, n, bnb.ArgInner, oracle.ArgInner)
			}
			// Full-space accounting: every candidate set is either evaluated
			// or pruned (seed-pass evaluations can only add to the left side).
			if got := int64(bnb.Sets) + bnb.Pruned; got < int64(oracle.Sets) {
				t.Fatalf("trial %d n=%d obj=%v: bnb accounts for %d sets < space %d",
					trial, n, obj, got, oracle.Sets)
			}
		}
	}
}

// TestBnbExactFrontierN120: the acceptance instance for this change — an
// exact β on n=120 completing within the default budget, far past the
// flat enumeration frontier (C(120,6) ≈ 3.7e9 alone overflows it), with a
// subtree-prune rate ≥ 50% and bit-identical results and counters at
// 1, 2, and 8 workers.
func TestBnbExactFrontierN120(t *testing.T) {
	g := gen.ErdosRenyi(120, 0.08, rng.New(120))
	base, err := Exact(g, ObjOrdinary, Options{MaxK: 6, RunOpts: runopts.RunOpts{Workers: 1}})
	if err != nil {
		t.Fatalf("n=120 under default budget: %v", err)
	}
	if base.Kernel != "big-bnb" {
		t.Fatalf("kernel = %s, want big-bnb", base.Kernel)
	}
	if base.Value != 2.0 {
		t.Fatalf("β(ER(120,0.08), k≤6) = %v, want 2", base.Value)
	}
	if base.Witness == nil || base.Witness.Count() == 0 {
		t.Fatal("missing witness")
	}
	rate := float64(base.Pruned) / (float64(base.Pruned) + float64(base.Sets))
	if rate < 0.5 {
		t.Fatalf("prune rate %.3f < 0.5 (sets=%d pruned=%d)", rate, base.Sets, base.Pruned)
	}
	if base.SubtreesPruned == 0 {
		t.Fatal("no subtrees pruned on a 3.7e9-set instance")
	}
	for _, w := range []int{2, 8} {
		r, err := Exact(g, ObjOrdinary, Options{MaxK: 6, RunOpts: runopts.RunOpts{Workers: w}})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sameSearch(t, "n120", base, r)
	}
}

// TestBnbBudgetErrorIsTyped: a budget blow-up must wrap ErrBudget so
// callers can fall back (cmd/wexp's bracket/estimate tiers key on it).
func TestBnbBudgetErrorIsTyped(t *testing.T) {
	_, err := Exact(gen.ErdosRenyi(60, 0.5, rng.New(1)), ObjOrdinary,
		Options{MaxK: 30, RunOpts: runopts.RunOpts{Budget: 1 << 12}})
	if err == nil {
		t.Fatal("2^12 budget accepted a C(60,30) search")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err %v does not wrap ErrBudget", err)
	}
}
