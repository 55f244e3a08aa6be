package expansion

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"wexp/internal/gen"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

// TestExactLargeN72 is the acceptance check for the size-agnostic engine:
// all three solvers on an n = 72 sparse graph (a cycle), under an explicit
// work budget, with known closed-form answers for k ≤ 3 (arcs are the
// minimizers: β = βw = 2/3, βu = 2/3 at the 3-arc).
func TestExactLargeN72(t *testing.T) {
	g := gen.Cycle(72)
	opt := Options{RunOpts: runopts.RunOpts{Budget: 1 << 22}, Alpha: 3.0 / 72.0}

	res, err := Exact(g, ObjOrdinary, opt)
	if err != nil {
		t.Fatalf("ordinary n=72: %v", err)
	}
	if math.Abs(res.Value-2.0/3) > 1e-12 {
		t.Fatalf("β(C72, k ≤ 3) = %g, want 2/3", res.Value)
	}
	if res.Witness == nil || res.Witness.Count() != 3 {
		t.Fatalf("witness %v should be a 3-arc", res.Witness)
	}
	// A 3-arc's external neighborhood really is 2.
	if got := GammaMinus(g, res.Witness).Count(); got != 2 {
		t.Fatalf("witness external neighborhood = %d, want 2", got)
	}

	resU, err := Exact(g, ObjUnique, opt)
	if err != nil {
		t.Fatalf("unique n=72: %v", err)
	}
	if math.Abs(resU.Value-2.0/3) > 1e-12 {
		t.Fatalf("βu(C72, k ≤ 3) = %g, want 2/3", resU.Value)
	}

	resW, err := Exact(g, ObjWireless, opt)
	if err != nil {
		t.Fatalf("wireless n=72: %v", err)
	}
	if math.Abs(resW.Value-2.0/3) > 1e-12 {
		t.Fatalf("βw(C72, k ≤ 3) = %g, want 2/3", resW.Value)
	}
	if resW.InnerWitness == nil || !resW.InnerWitness.IsSubsetOf(resW.Witness) {
		t.Fatal("inner witness must be a subset of the witness")
	}
	// Observation 2.1 on the large-n path.
	if res.Value < resW.Value-1e-9 || resW.Value < resU.Value-1e-9 {
		t.Fatalf("ordering violated at n=72: β=%g βw=%g βu=%g", res.Value, resW.Value, resU.Value)
	}

	// The same run without the explicit budget headroom must be refused:
	// the work (62,196 sets for β) exceeds a 1<<10 budget.
	if _, err := Exact(g, ObjOrdinary, Options{RunOpts: runopts.RunOpts{Budget: 1 << 10}, Alpha: 3.0 / 72.0}); err == nil {
		t.Fatal("n=72 accepted under a 1<<10 budget")
	}
}

// TestBigPathMatchesSmallPath is the regression guard demanded by the
// engine rewrite: the bitset (large-n) kernel must reproduce the uint64
// kernel bit-for-bit — Value, ArgSet, ArgInner, and Sets — on every graph
// both accept.
func TestBigPathMatchesSmallPath(t *testing.T) {
	r := rng.New(20180216)
	for n := 8; n <= 16; n++ {
		g := gen.ErdosRenyi(n, 0.35, r)
		for _, obj := range []Objective{ObjOrdinary, ObjUnique, ObjWireless, ObjEdge} {
			alpha := 0.5
			if obj == ObjWireless && n >= 14 {
				// Cap the 2^|S|-per-set cost so the bitset kernel stays
				// test-sized; the order/tie-break logic is identical at
				// every cardinality.
				alpha = 0.3
			}
			opt := Options{Alpha: alpha}
			small, err1 := Exact(g, obj, opt)
			opt.forceBig = true
			big, err2 := Exact(g, obj, opt)
			if err1 != nil || err2 != nil {
				t.Fatalf("n=%d %v: errors %v / %v", n, obj, err1, err2)
			}
			if small.Value != big.Value {
				t.Fatalf("n=%d %v: value %g != %g", n, obj, small.Value, big.Value)
			}
			if small.ArgSet != big.ArgSet {
				t.Fatalf("n=%d %v: witness %b != %b", n, obj, small.ArgSet, big.ArgSet)
			}
			if small.ArgInner != big.ArgInner {
				t.Fatalf("n=%d %v: inner %b != %b", n, obj, small.ArgInner, big.ArgInner)
			}
			if small.Sets != big.Sets {
				t.Fatalf("n=%d %v: sets %d != %d", n, obj, small.Sets, big.Sets)
			}
			if big.Witness == nil || toMask(big.Witness) != small.ArgSet {
				t.Fatalf("n=%d %v: bitset witness disagrees with mask", n, obj)
			}
		}
	}
}

// TestWorkerCountInvariance: the deterministic merge must make the result
// — including the witness and the Sets counter — identical at every pool
// width, for every objective. This subsumes the legacy serial-vs-parallel
// cross-check and extends it from βw to all solvers.
func TestWorkerCountInvariance(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 6; trial++ {
		g := gen.ErdosRenyi(11, 0.3, r)
		for _, obj := range []Objective{ObjOrdinary, ObjUnique, ObjWireless} {
			for _, alpha := range []float64{0.25, 0.5, 1.0} {
				serial, err1 := Exact(g, obj, Options{RunOpts: runopts.RunOpts{Workers: 1}, Alpha: alpha})
				if err1 != nil {
					t.Fatal(err1)
				}
				for _, w := range []int{2, 3, 8, 64} {
					par, err2 := Exact(g, obj, Options{RunOpts: runopts.RunOpts{Workers: w}, Alpha: alpha})
					if err2 != nil {
						t.Fatal(err2)
					}
					if serial.Value != par.Value || serial.ArgSet != par.ArgSet ||
						serial.ArgInner != par.ArgInner || serial.Sets != par.Sets {
						t.Fatalf("trial %d %v α=%g workers=%d: (%g,%b,%b,%d) != (%g,%b,%b,%d)",
							trial, obj, alpha, w,
							serial.Value, serial.ArgSet, serial.ArgInner, serial.Sets,
							par.Value, par.ArgSet, par.ArgInner, par.Sets)
					}
				}
			}
		}
	}
}

// TestDegeneratePoolRanges: tiny graphs with pool widths far above the
// subproblem count — the regression class of an early hand-partitioned
// parallel solver, where a range boundary could produce lo ≥ hi. βu never
// prunes and has no seed pass, so its Sets count is the whole space — the
// property the partition must preserve; βw must match the oracle.
func TestDegeneratePoolRanges(t *testing.T) {
	for n := 3; n <= 6; n++ {
		g := gen.Cycle(n)
		oracle := oracleExact(g, ObjWireless, n, 1, false)
		for _, w := range []int{1, 7, 16, 1024} {
			opt := Options{RunOpts: runopts.RunOpts{Workers: w}, Alpha: 1}
			res, err := Exact(g, ObjUnique, opt)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			want := (1 << uint(n)) - 1 // all nonempty subsets
			if res.Sets != want || res.Pruned != 0 {
				t.Fatalf("n=%d workers=%d: enumerated %d sets (pruned %d), want %d", n, w, res.Sets, res.Pruned, want)
			}
			resW, err := Exact(g, ObjWireless, opt)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			assertSameAnswer(t, fmt.Sprintf("n=%d workers=%d", n, w), oracle, resW)
		}
	}
}

// TestPruningIsInvisible: the branch-and-bound search must change only the
// counters (Sets/Pruned/Visited are search-shaped), never the answer of
// the non-pruning test oracle.
func TestPruningIsInvisible(t *testing.T) {
	r := rng.New(7)
	pruned := false
	for trial := 0; trial < 10; trial++ {
		g := gen.ErdosRenyi(12, 0.4, r)
		for _, obj := range []Objective{ObjOrdinary, ObjWireless, ObjEdge} {
			on, err := Exact(g, obj, Options{Alpha: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			off := oracleExact(g, obj, 6, 1, false)
			if on.Value != off.Value || on.ArgSet != off.ArgSet ||
				on.ArgInner != off.ArgInner {
				t.Fatalf("trial %d %v: pruning changed the result", trial, obj)
			}
			if on.Sets+int(min64(on.Pruned, 1<<40)) < off.Sets {
				t.Fatalf("trial %d %v: bnb accounted for %d+%d sets, full space is %d",
					trial, obj, on.Sets, on.Pruned, off.Sets)
			}
			if on.Pruned > 0 || on.SubtreesPruned > 0 {
				pruned = true
			}
		}
	}
	if !pruned {
		t.Fatal("branch-and-bound never fired on any trial; the bound is dead code")
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestEnumWorkAndBinom pins the combinatorics the budget check rests on.
func TestEnumWorkAndBinom(t *testing.T) {
	if got := binom(30, 15); got != 155117520 {
		t.Fatalf("C(30,15) = %d", got)
	}
	if got := binom(72, 3); got != 59640 {
		t.Fatalf("C(72,3) = %d", got)
	}
	if got := binom(200, 100); got != math.MaxUint64 {
		t.Fatalf("C(200,100) should saturate, got %d", got)
	}
	// Ordinary work = Σ C(n,k), here all nonempty subsets of a 10-universe.
	if got := enumWork(10, 10, ObjOrdinary); got != (1<<10)-1 {
		t.Fatalf("enumWork(10,10,ordinary) = %d", got)
	}
	// Wireless work = Σ C(n,k)·2^k = 3^n − 1.
	want := uint64(1)
	for i := 0; i < 10; i++ {
		want *= 3
	}
	if got := enumWork(10, 10, ObjWireless); got != want-1 {
		t.Fatalf("enumWork(10,10,wireless) = %d, want %d", got, want-1)
	}
	if !Feasible(16, 16, ObjWireless, 0) {
		t.Fatal("n=16 wireless should fit the default budget")
	}
	if Feasible(26, 13, ObjWireless, 0) {
		t.Fatal("n=26 wireless should not fit the default budget")
	}
}

// TestCombinationUnranking pins the colex unranking the test oracle seeds
// its chunks with: walking rank-by-rank must agree with Gosper enumeration.
func TestCombinationUnranking(t *testing.T) {
	const n, k = 10, 4
	mask := uint64(1)<<k - 1 // first combination
	for r := uint64(0); r < binom(n, k); r++ {
		if got := combinationMask(n, k, r); got != mask {
			t.Fatalf("rank %d: unranked %b, Gosper %b", r, got, mask)
		}
		if r+1 < binom(n, k) {
			mask = gosperNext(mask)
		}
	}
}

// TestProfileLargeN checks the by-cardinality profile on the big path.
func TestProfileLargeN(t *testing.T) {
	g := gen.Cycle(70)
	p, err := Profile(g, ObjOrdinary, 4, Options{RunOpts: runopts.RunOpts{Budget: 1 << 22}})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		want := 2.0 / float64(k)
		if math.Abs(p.MinExpansion[k]-want) > 1e-12 {
			t.Fatalf("profile[%d] = %g, want %g", k, p.MinExpansion[k], want)
		}
		if p.Witnesses[k] == nil || p.Witnesses[k].Count() != k {
			t.Fatalf("profile witness %d missing or wrong size", k)
		}
	}
}

// TestResultWitnessBitsets: the bitset witnesses must agree with the
// legacy uint64 masks on small graphs.
func TestResultWitnessBitsets(t *testing.T) {
	g := gen.CPlus(6)
	res, err := ExactWireless(g, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if res.Witness == nil || toMask(res.Witness) != res.ArgSet {
		t.Fatalf("witness bitset %v != mask %b", res.Witness, res.ArgSet)
	}
	if res.ArgInner != 0 {
		if res.InnerWitness == nil || toMask(res.InnerWitness) != res.ArgInner {
			t.Fatalf("inner witness bitset %v != mask %b", res.InnerWitness, res.ArgInner)
		}
	}
	if bits.OnesCount64(res.ArgSet) != res.Witness.Count() {
		t.Fatal("witness popcount mismatch")
	}
}
