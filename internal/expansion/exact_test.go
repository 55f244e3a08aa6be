package expansion

import (
	"errors"
	"math"
	"math/bits"
	"testing"

	"wexp/internal/bitset"
	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

func TestExactOrdinaryComplete(t *testing.T) {
	// K_n: every S with |S| ≤ n/2 has Γ⁻(S) = V \ S, so
	// β = min (n−k)/k over k ≤ n/2 = (n − ⌊n/2⌋)/⌊n/2⌋.
	g := gen.Complete(8)
	res, err := ExactOrdinary(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 1.0 { // (8-4)/4
		t.Fatalf("K8 β = %g, want 1", res.Value)
	}
}

func TestExactOrdinaryCycle(t *testing.T) {
	// Cycle: a contiguous arc of length k has exactly 2 external neighbors,
	// so β = 2/⌊αn⌋.
	g := gen.Cycle(12)
	res, err := ExactOrdinary(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / 6.0
	if math.Abs(res.Value-want) > 1e-12 {
		t.Fatalf("C12 β = %g, want %g", res.Value, want)
	}
}

func TestExactOrdinaryStar(t *testing.T) {
	// Star K_{1,n-1}, α small enough that only leaves or center alone fit:
	// a single leaf has 1 neighbor → expansion 1; the set of two leaves has
	// 1 external neighbor → 0.5.
	g := gen.Star(10)
	res, err := ExactOrdinary(g, 0.2) // |S| ≤ 2
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0.5 {
		t.Fatalf("star β = %g, want 0.5", res.Value)
	}
}

func TestExactUniqueCPlus(t *testing.T) {
	// The Introduction's example: S = {s0, x, y} in C⁺ has no unique
	// neighbor... every clique vertex sees both x and y. βu = 0.
	g := gen.CPlus(6)
	res, err := ExactUnique(g, 0.45) // |S| ≤ 3 of 7 vertices
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("C+ βu = %g, want 0", res.Value)
	}
	// The witness should include x=1 and y=2 (both clique neighbors of s0).
	S := res.ArgSet
	if bits.OnesCount64(S) == 0 {
		t.Fatal("no witness set")
	}
}

func TestExactWirelessCPlusPositive(t *testing.T) {
	// Wireless expansion of C⁺ is positive: for S = {s0, x, y} pick
	// S' = {x} alone — it uniquely covers the rest of the clique.
	g := gen.CPlus(6)
	res, err := ExactWireless(g, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value <= 0 {
		t.Fatalf("C+ βw = %g, want > 0", res.Value)
	}
}

func TestOrderingObservation21(t *testing.T) {
	// Observation 2.1: β ≥ βw ≥ βu on a batch of small random graphs.
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		g := gen.ErdosRenyi(10, 0.35, r)
		beta, betaW, betaU, err := Ordering(g, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if beta < betaW-1e-9 || betaW < betaU-1e-9 {
			t.Fatalf("trial %d: ordering violated β=%g βw=%g βu=%g", trial, beta, betaW, betaU)
		}
	}
}

func TestExactWirelessMatchesBruteForce(t *testing.T) {
	// Independent re-implementation: for every S, compute the inner max by
	// direct per-subset recount using bitsets (not the once/twice trick).
	r := rng.New(7)
	g := gen.ErdosRenyi(8, 0.4, r)
	res, err := ExactWireless(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteWireless(g, 0.5)
	if math.Abs(res.Value-want) > 1e-12 {
		t.Fatalf("βw = %g, brute = %g", res.Value, want)
	}
}

// bruteWireless recomputes βw from first principles with the bitset-based
// Gamma1Excluding (O(3^n · n) — fine for n = 8).
func bruteWireless(g *graph.Graph, alpha float64) float64 {
	n := g.N()
	maxSize := int(alpha * float64(n))
	best := math.Inf(1)
	for S := 1; S < 1<<uint(n); S++ {
		size := bits.OnesCount64(uint64(S))
		if size > maxSize {
			continue
		}
		sset := bitset.New(n)
		for v := 0; v < n; v++ {
			if S&(1<<uint(v)) != 0 {
				sset.Add(v)
			}
		}
		inner := 0
		for sub := S; ; sub = (sub - 1) & S {
			if sub != 0 {
				pset := bitset.New(n)
				for v := 0; v < n; v++ {
					if sub&(1<<uint(v)) != 0 {
						pset.Add(v)
					}
				}
				if c := Gamma1Excluding(g, sset, pset).Count(); c > inner {
					inner = c
				}
			}
			if sub == 0 {
				break
			}
		}
		if v := float64(inner) / float64(size); v < best {
			best = v
		}
	}
	return best
}

func TestExactUniqueMatchesBitsetGamma1(t *testing.T) {
	r := rng.New(11)
	g := gen.ErdosRenyi(9, 0.4, r)
	masks := adjMasks(g)
	// Cross-validate uniqueMask against Gamma1 on 100 random subsets.
	for trial := 0; trial < 100; trial++ {
		S := uint64(r.Intn(1 << 9))
		if S == 0 {
			continue
		}
		got := bits.OnesCount64(uniqueMask(masks, S) &^ S)
		sset := bitset.New(9)
		for v := 0; v < 9; v++ {
			if S&(1<<uint(v)) != 0 {
				sset.Add(v)
			}
		}
		want := Gamma1(g, sset).Count()
		if got != want {
			t.Fatalf("S=%b: uniqueMask=%d Gamma1=%d", S, got, want)
		}
	}
}

func TestExactBudgetLimits(t *testing.T) {
	// Σ C(30,k≤15) ≈ 5.4e8 work units exceeds the default budget, so a full
	// enumeration is infeasible...
	if Feasible(30, 15, ObjOrdinary, 0) {
		t.Fatal("n=30 α=0.5 enumeration reported feasible under default budget")
	}
	// ...while the branch-and-bound search cuts the space down and finishes
	// the same instance inside it: β(C30, k ≤ 15) = 2/15 (a contiguous arc).
	res, err := ExactOrdinary(gen.Cycle(30), 0.5)
	if err != nil {
		t.Fatalf("branch-and-bound rejected n=30 α=0.5: %v", err)
	}
	if math.Abs(res.Value-2.0/15) > 1e-12 {
		t.Fatalf("β(C30, k ≤ 15) = %g, want 2/15", res.Value)
	}
	// A smaller α fits even a full enumeration (the cutoff shrinks the
	// space).
	res, err = ExactOrdinary(gen.Cycle(30), 0.1)
	if err != nil {
		t.Fatalf("n=30 α=0.1 rejected: %v", err)
	}
	if math.Abs(res.Value-2.0/3) > 1e-12 {
		t.Fatalf("β(C30, k ≤ 3) = %g, want 2/3", res.Value)
	}
	// Wireless admits only the weak degree floor — useless on a cycle at
	// k ≥ 3 — so Σ C(n,k)·2^k still blows the budget mid-search at n=26.
	if _, err := ExactWireless(gen.Cycle(26), 0.5); err == nil {
		t.Fatal("n=26 accepted by exact wireless solver under default budget")
	} else if !errors.Is(err, ErrBudget) {
		t.Fatalf("wireless overrun not an ErrBudget: %v", err)
	}
	// An explicit budget bounds the search deterministically too.
	if _, err := Exact(gen.Cycle(22), ObjWireless, Options{RunOpts: runopts.RunOpts{Budget: 1 << 10}, Alpha: 0.5}); err == nil {
		t.Fatal("tiny explicit budget accepted")
	}
	if _, err := ExactOrdinary(gen.Cycle(10), 0.0); err == nil {
		t.Fatal("alpha=0 accepted")
	}
}

func TestWirelessOfSetSingleton(t *testing.T) {
	// For a single vertex S = {v}, βw of the set is deg(v).
	g := gen.Star(6)
	masks := adjMasks(g)
	inner, sub := WirelessOfSet(masks, 1<<0) // center
	if inner != 5 || sub != 1 {
		t.Fatalf("center: inner=%d sub=%b", inner, sub)
	}
	inner, _ = WirelessOfSet(masks, 1<<3) // a leaf
	if inner != 1 {
		t.Fatalf("leaf: inner=%d", inner)
	}
}

func TestResultArgSetConsistency(t *testing.T) {
	// The reported ArgSet/ArgInner must reproduce the reported value.
	g := gen.CPlus(5)
	res, err := ExactWireless(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	masks := adjMasks(g)
	inner := bits.OnesCount64(uniqueMask(masks, res.ArgInner) &^ res.ArgSet)
	got := float64(inner) / float64(bits.OnesCount64(res.ArgSet))
	if math.Abs(got-res.Value) > 1e-12 {
		t.Fatalf("witness reproduces %g, reported %g", got, res.Value)
	}
}

// exactWirelessParallel runs the βw search on a fixed four-worker pool, so
// the parallel tests below exercise the pool on every machine.
func exactWirelessParallel(g *graph.Graph, alpha float64) (Result, error) {
	return Exact(g, ObjWireless, Options{Alpha: alpha, RunOpts: runopts.RunOpts{Workers: 4}})
}

// TestExactWirelessParallelKnownValues pins βw on graphs with known
// answers when the search runs on several workers.
func TestExactWirelessParallelKnownValues(t *testing.T) {
	res, err := exactWirelessParallel(gen.Complete(8), 0.5)
	if err != nil || res.Value != 1 {
		t.Fatalf("βw(K8) = %g, %v", res.Value, err)
	}
	res, err = exactWirelessParallel(gen.CPlus(6), 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value <= 0 {
		t.Fatalf("βw(C+) = %g, want > 0", res.Value)
	}
}

// TestExactWirelessParallelValidation checks that the multi-worker βw
// search refuses a graph beyond the default budget and α = 0.
func TestExactWirelessParallelValidation(t *testing.T) {
	if _, err := exactWirelessParallel(gen.Cycle(26), 0.5); err == nil {
		t.Fatal("budget-exceeding graph accepted")
	}
	if _, err := exactWirelessParallel(gen.Cycle(8), 0); err == nil {
		t.Fatal("alpha=0 accepted")
	}
}
