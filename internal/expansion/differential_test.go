package expansion

import (
	"fmt"
	"math"
	"testing"

	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

// assertSameAnswer demands bit-for-bit agreement on the answer — Value,
// both witness representations, the inner witness — across paths whose
// enumeration shapes (and hence Sets/Pruned counters) legitimately differ,
// such as the branch-and-bound search vs the test oracle.
func assertSameAnswer(t *testing.T, ctx string, want, got Result) {
	t.Helper()
	if want.Value != got.Value {
		t.Fatalf("%s: value %g != %g", ctx, want.Value, got.Value)
	}
	if want.ArgSet != got.ArgSet || want.ArgInner != got.ArgInner {
		t.Fatalf("%s: witness masks (%b,%b) != (%b,%b)",
			ctx, want.ArgSet, want.ArgInner, got.ArgSet, got.ArgInner)
	}
	if (want.Witness == nil) != (got.Witness == nil) ||
		(want.Witness != nil && !want.Witness.Equal(got.Witness)) {
		t.Fatalf("%s: bitset witness %v != %v", ctx, want.Witness, got.Witness)
	}
	if (want.InnerWitness == nil) != (got.InnerWitness == nil) ||
		(want.InnerWitness != nil && !want.InnerWitness.Equal(got.InnerWitness)) {
		t.Fatalf("%s: inner witness %v != %v", ctx, want.InnerWitness, got.InnerWitness)
	}
}

// assertSameResult additionally demands the same Sets count — the contract
// between two full enumerations of the same rank space.
func assertSameResult(t *testing.T, ctx string, want, got Result) {
	t.Helper()
	assertSameAnswer(t, ctx, want, got)
	if want.Sets != got.Sets {
		t.Fatalf("%s: sets %d != %d", ctx, want.Sets, got.Sets)
	}
}

var allObjectives = []Objective{ObjOrdinary, ObjUnique, ObjWireless, ObjEdge}

// searchBoth runs the search on both representations — the uint64 leaves
// and the bitset leaves (forceBig) — checks each against the oracle's
// answer and the kernel labels, and demands identical counters: the two
// representations walk the same tree. It returns the uint64 run.
func searchBoth(t *testing.T, label string, g *graph.Graph, obj Objective, opt Options, oracle Result) Result {
	t.Helper()
	small, err := Exact(g, obj, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertSameAnswer(t, label+" small-bnb", oracle, small)
	opt.forceBig = true
	big, err := Exact(g, obj, opt)
	if err != nil {
		t.Fatalf("%s big: %v", label, err)
	}
	assertSameAnswer(t, label+" big-bnb", oracle, big)
	if small.Kernel != "small-bnb" || big.Kernel != "big-bnb" {
		t.Fatalf("%s: kernel labels %q / %q", label, small.Kernel, big.Kernel)
	}
	sameSearch(t, label+" small vs big", small, big)
	return small
}

// TestIncrementalMatchesRecompute is the differential acceptance test of
// the search: on random graphs, for all four objectives, several α and
// pool widths, the branch-and-bound search must reproduce the serial test
// oracle's answer bit for bit on both representations, with every counter
// identical across representations and pool widths.
func TestIncrementalMatchesRecompute(t *testing.T) {
	r := rng.New(20260728)
	for trial := 0; trial < 4; trial++ {
		n := 7 + trial*2
		g := gen.ErdosRenyi(n, 0.35, r)
		for _, obj := range allObjectives {
			for _, alpha := range []float64{0.3, 0.6, 1.0} {
				if obj == ObjWireless && n >= 13 && alpha > 0.6 {
					alpha = 0.5 // cap the 2^k inner scan at test size
				}
				oracle := oracleExact(g, obj, MaxSetSize(n, alpha), 1, false)
				var base Result
				for _, w := range []int{1, 3, 8} {
					label := fmt.Sprintf("n=%d %v α=%g w=%d", n, obj, alpha, w)
					res := searchBoth(t, label, g, obj, Options{RunOpts: runopts.RunOpts{Workers: w}, Alpha: alpha}, oracle)
					if w == 1 {
						base = res
					}
					sameSearch(t, label+" vs w=1", base, res)
				}
			}
		}
	}
}

// TestIncrementalMatchesRecomputeLargeN runs the differential check on the
// genuine n > 64 path, where only the bitset representation applies.
func TestIncrementalMatchesRecomputeLargeN(t *testing.T) {
	r := rng.New(68)
	graphs := map[string]*graph.Graph{
		"cycle68": gen.Cycle(68),
		"er68":    gen.ErdosRenyi(68, 0.08, r),
	}
	for name, g := range graphs {
		for _, obj := range allObjectives {
			maxK := 3
			if obj == ObjWireless {
				maxK = 2
			}
			oracle := oracleExact(g, obj, maxK, 1, true)
			var base Result
			for _, w := range []int{1, 4} {
				bnb, err := Exact(g, obj, Options{RunOpts: runopts.RunOpts{Budget: 1 << 22, Workers: w}, MaxK: maxK})
				if err != nil {
					t.Fatalf("%s %v: %v", name, obj, err)
				}
				if bnb.Kernel != "big-bnb" {
					t.Fatalf("%s %v: kernel %q", name, obj, bnb.Kernel)
				}
				assertSameAnswer(t, name+" "+obj.String(), oracle, bnb)
				if w == 1 {
					base = bnb
				}
				sameSearch(t, name+" "+obj.String()+" workers", base, bnb)
			}
		}
	}
}

// TestIncrementalChunkBoundaries sweeps chunkings of the oracle's rank
// space and pool widths of the search far beyond the subproblem count:
// every oracle chunking must reproduce the one-chunk walk exactly (Sets
// included), and every pool width must reproduce the oracle's answer and
// the serial search's counters.
func TestIncrementalChunkBoundaries(t *testing.T) {
	g := gen.ErdosRenyi(12, 0.3, rng.New(5))
	for _, obj := range allObjectives {
		serial := oracleExact(g, obj, 9, 1, false)
		base, err := Exact(g, obj, Options{RunOpts: runopts.RunOpts{Workers: 1}, Alpha: 0.75})
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswer(t, obj.String()+" bnb", serial, base)
		for _, w := range []int{1, 2, 3, 5, 8, 13, 64, 512} {
			big := w%2 == 1 // odd piece counts walk the bitset evaluator
			assertSameResult(t, fmt.Sprintf("%v oracle pieces=%d big=%v", obj, w, big),
				serial, oracleExact(g, obj, 9, w, big))
			bnb, err := Exact(g, obj, Options{RunOpts: runopts.RunOpts{Workers: w}, Alpha: 0.75})
			if err != nil {
				t.Fatal(err)
			}
			sameSearch(t, fmt.Sprintf("%v bnb w=%d", obj, w), base, bnb)
		}
	}
}

// TestBipartiteIncrementalMatchesRecompute checks the bipartite search
// against the bipartite oracle: identical values and witnesses under a
// size cap (the search path) at every pool width, worker-invariant
// counters, and agreement of the Gray-code walk with the oracle on the
// value and the set count (the Gray walk's first-minimizer tie-break
// differs by design, so witnesses are not compared against it).
func TestBipartiteIncrementalMatchesRecompute(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 5; trial++ {
		s := 8 + trial*3
		bg := gen.RandomBipartite(s, s+s/2, 0.25, r)
		oracle := oracleBipartite(bg, s-1)
		var serial BipartiteResult
		for _, w := range []int{1, 2, 8} {
			bnb, err := MinBipartiteExpansionOpts(bg, Options{RunOpts: runopts.RunOpts{Workers: w}, MaxK: s - 1})
			if err != nil {
				t.Fatalf("s=%d w=%d: %v", s, w, err)
			}
			if oracle.Value != bnb.Value || oracle.ArgSet != bnb.ArgSet || !oracle.Witness.Equal(bnb.Witness) {
				t.Fatalf("s=%d w=%d: oracle (%g,%b) != bnb (%g,%b)", s, w,
					oracle.Value, oracle.ArgSet, bnb.Value, bnb.ArgSet)
			}
			if w == 1 {
				serial = bnb
			}
			if serial.Sets != bnb.Sets || serial.Pruned != bnb.Pruned ||
				serial.Visited != bnb.Visited || serial.SubtreesPruned != bnb.SubtreesPruned {
				t.Fatalf("s=%d w=%d: bnb counters (%d,%d,%d,%d) != serial (%d,%d,%d,%d)", s, w,
					bnb.Sets, bnb.Pruned, bnb.Visited, bnb.SubtreesPruned,
					serial.Sets, serial.Pruned, serial.Visited, serial.SubtreesPruned)
			}
			if int64(bnb.Sets)+bnb.Pruned < int64(oracle.Sets) {
				t.Fatalf("s=%d w=%d: bnb accounts for %d+%d sets < space %d", s, w, bnb.Sets, bnb.Pruned, oracle.Sets)
			}
		}
		gray, err := MinBipartiteExpansion(bg)
		if err != nil {
			t.Fatal(err)
		}
		full := oracleBipartite(bg, s)
		if gray.Value != full.Value || gray.Sets != full.Sets {
			t.Fatalf("s=%d: oracle (%g,%d) != gray walk (%g,%d)",
				s, full.Value, full.Sets, gray.Value, gray.Sets)
		}
	}
}

// TestIncrementalHotLoopAllocs pins the arena design: on a warm arena, a
// search leaf evaluating tens of thousands of sets allocates (amortized)
// nothing per set — the uint64 leaves are allocation-free, the bitset
// leaves allocate only the witness buffer that escapes into the result.
func TestIncrementalHotLoopAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		obj  Objective
		k    int
	}{
		{"small-ordinary", 24, ObjOrdinary, 5},
		{"small-edge", 24, ObjEdge, 5},
		{"small-wireless", 24, ObjWireless, 3},
		{"big-ordinary", 72, ObjOrdinary, 3},
		{"big-unique", 72, ObjUnique, 3},
		{"big-wireless", 72, ObjWireless, 3},
	} {
		g := gen.ErdosRenyi(tc.n, 0.3, rng.New(uint64(tc.n)))
		gs := newGraphSearch(g, tc.obj, tc.k, Options{}, math.MaxUint64, true)
		ar := gs.pool.Get().(*bnbArena)
		sets := float64(binom(tc.n, tc.k))
		leaf := func() {
			var best chunkBest
			if err := gs.leaf(&best, ar, nil, 0, tc.k, tc.k); err != nil {
				t.Fatal(err)
			}
			if float64(best.sets)+float64(best.pruned) != sets {
				t.Fatalf("%s: leaf covered %d+%d of %v sets", tc.name, best.sets, best.pruned, sets)
			}
		}
		leaf() // warm the arena
		if allocs := testing.AllocsPerRun(3, leaf); allocs/sets > 0.001 {
			t.Fatalf("%s: %.1f allocs per %v-set leaf", tc.name, allocs, sets)
		}
	}
}

// FuzzExpansionKernels drives randomized graphs, objectives, size caps and
// pool widths through every search path — the uint64 and bitset leaves,
// the bipartite search, and the randomized tier with every stratum
// exhaustive — and requires bit-for-bit agreement with the test oracle.
func FuzzExpansionKernels(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(3), uint8(0), uint8(5), uint8(1))
	f.Add(uint64(42), uint8(12), uint8(6), uint8(2), uint8(4), uint8(3))
	f.Add(uint64(7), uint8(5), uint8(1), uint8(3), uint8(9), uint8(8))
	f.Add(uint64(1234), uint8(14), uint8(2), uint8(1), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, pRaw, objRaw, alphaRaw, wRaw uint8) {
		n := 4 + int(nRaw)%11 // 4..14
		p := 0.1 + float64(pRaw%8)*0.1
		obj := allObjectives[objRaw%4]
		alpha := 0.2 + float64(alphaRaw%9)*0.1 // 0.2..1.0
		if obj == ObjWireless && alpha > 0.6 {
			alpha = 0.6 // bound the 2^k inner scan
		}
		workers := 1 + int(wRaw)%8
		maxK := MaxSetSize(n, alpha)
		if maxK == 0 {
			return // α too small for a nonempty set
		}
		g := gen.ErdosRenyi(n, p, rng.New(seed))
		oracle := oracleExact(g, obj, maxK, 1, false)
		assertSameResult(t, "big oracle "+obj.String(), oracle, oracleExact(g, obj, maxK, workers, true))
		searchBoth(t, "fuzz "+obj.String(), g, obj, Options{RunOpts: runopts.RunOpts{Workers: workers}, MaxK: maxK}, oracle)

		// The randomized tier with every stratum exhaustive is the search's
		// leaves over whole strata: the oracle's answer and set count.
		exhK := 0
		for exhK < maxK && binom(n, exhK+1) <= randExhaustiveCutoff {
			exhK++
		}
		rd, err := Randomized(g, obj, RandOptions{MaxK: exhK, RunOpts: runopts.RunOpts{Workers: workers, Seed: seed}})
		if err != nil {
			t.Fatalf("randomized: %v", err)
		}
		exact := oracle
		if exhK < maxK {
			exact = oracleExact(g, obj, exhK, 1, false)
		}
		assertSameResult(t, "randomized "+obj.String(), exact, rd)
		if rd.Cert.Kind != CertExact {
			t.Fatalf("all-exhaustive randomized certified %q", rd.Cert.Kind)
		}

		// The bipartite search on the graph's first half against the rest
		// (s ≥ 2, so a size cap below s routes it to the search).
		s := n / 2
		bb := graph.NewBipartiteBuilder(s, n-s)
		for u := 0; u < s; u++ {
			for _, v := range g.Neighbors(u) {
				if int(v) >= s {
					bb.MustAddEdge(u, int(v)-s)
				}
			}
		}
		bg := bb.Build()
		bipK := min(maxK, s-1)
		want := oracleBipartite(bg, bipK)
		got, err := MinBipartiteExpansionOpts(bg, Options{RunOpts: runopts.RunOpts{Workers: workers}, MaxK: bipK})
		if err != nil {
			t.Fatalf("bipartite: %v", err)
		}
		if want.Value != got.Value || want.ArgSet != got.ArgSet || !want.Witness.Equal(got.Witness) {
			t.Fatalf("bipartite s=%d k≤%d: oracle (%g,%b) != bnb (%g,%b)",
				s, bipK, want.Value, want.ArgSet, got.Value, got.ArgSet)
		}
	})
}
