package radio

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

// TestLargeGraphStreamingAcceptance is the end-to-end acceptance check for
// the million-vertex path: a synthetic SNAP-scale edge list is streamed
// into CSR, the CSR scatter runs a Decay Monte-Carlo trial set, and both
// phases are held to the O(n + m)-words memory contract via
// runtime.ReadMemStats. Results must be bit-identical at workers 1, 2, 8.
//
// The default configuration (n = 10⁵, m ≈ 10⁶) runs in every tier-1 pass,
// including under -race. Setting WEXP_LARGE=1 scales to the full
// acceptance size n = 10⁶, m ≈ 10⁷ — CI runs that in the dedicated
// large-graph-smoke job under GOMEMLIMIT.
func TestLargeGraphStreamingAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph acceptance skipped in -short mode")
	}
	n, extra, trials, maxRounds := 100_000, 900_000, 4, 24
	if os.Getenv("WEXP_LARGE") == "1" {
		n, extra, trials, maxRounds = 1_000_000, 9_000_000, 6, 40
	}

	var before, afterIngest runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	g, st, err := graph.StreamEdgeListStats(graph.SynthEdgeList(n, extra, 7), graph.EdgeListOptions{})
	if err != nil {
		t.Fatalf("streaming ingest: %v", err)
	}
	if g.N() != n {
		t.Fatalf("ingested n=%d, want %d", g.N(), n)
	}
	if g.M() < (n-1+extra)*9/10 {
		t.Fatalf("ingested m=%d, want ≈%d (duplicate collapse should be light)", g.M(), n-1+extra)
	}
	if st.Edges != int64(n-1+extra) {
		t.Fatalf("ingest stats saw %d edge records, want %d", st.Edges, n-1+extra)
	}

	// Memory contract, ingestion: after the arc blocks are released, the
	// live heap added by ingestion is the CSR itself plus bounded slack —
	// well under 8 words per (n + m).
	words := uint64(g.N() + g.M())
	runtime.GC()
	runtime.ReadMemStats(&afterIngest)
	liveIngest := heapDelta(before, afterIngest)
	if budget := 8*8*words + (16 << 20); liveIngest > budget {
		t.Fatalf("ingestion leaves %d bytes live, budget %d (8 words × (n+m) + slack)", liveIngest, budget)
	}

	// Strategy: a graph this size must scatter from the CSR, with no bit
	// rows built.
	if BuildAdjRows(g).rows != nil {
		t.Fatalf("n=%d built bit rows, want the CSR scatter", n)
	}

	factory := func(r *rng.RNG) Protocol { return &Decay{R: r} }
	opts := Options{
		RunOpts:     runopts.RunOpts{Seed: 42, Workers: 1},
		MaxRounds:   maxRounds,
		TraceRounds: -1,
	}
	var results []*Result
	for _, workers := range []int{1, 2, 8} {
		o := opts
		o.Workers = workers
		res, err := MonteCarlo(g, 0, factory, trials, o)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("Monte-Carlo results diverge between worker counts (index %d)", i)
		}
	}
	if got := results[0].Rounds.N; got != trials {
		t.Fatalf("aggregated %d trials, want %d", got, trials)
	}
	// The trial set must make real progress: Decay on a connected synthetic
	// graph informs a large set within the round budget.
	if inf := results[0].PerTrial[0].InformedCount; inf < n/10 {
		t.Fatalf("after %d rounds only %d/%d informed — engine is not propagating", maxRounds, inf, n)
	}

	// Memory contract, simulation: live heap after the runs — graph
	// included — stays O(n + m) words. Dense rows at this n would need
	// n²/8 bytes (≫ this budget by orders of magnitude).
	var afterMC runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&afterMC)
	liveMC := heapDelta(before, afterMC)
	if budget := 16*8*words + (32 << 20); liveMC > budget {
		t.Fatalf("Monte-Carlo leaves %d bytes live, budget %d (16 words × (n+m) + slack)", liveMC, budget)
	}
	t.Logf("n=%d m=%d ingest-live=%s mc-live=%s trials=%d informed[0]=%d",
		g.N(), g.M(), fmtBytes(liveIngest), fmtBytes(liveMC), trials, results[0].PerTrial[0].InformedCount)
}

func heapDelta(before, after runtime.MemStats) uint64 {
	if after.HeapAlloc <= before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
