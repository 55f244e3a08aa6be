package expansion

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"wexp/internal/gen"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

// countdownCtx is a context whose Err() flips to Canceled after a fixed
// number of observations — a deterministic stand-in for "cancelled while
// the enumeration is in flight", independent of scheduling and timers.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestExactCancelledBeforeStart(t *testing.T) {
	g := gen.ErdosRenyi(20, 0.3, rng.New(7))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := Exact(g, ObjOrdinary, Options{RunOpts: runopts.RunOpts{Workers: workers}, Alpha: 0.5, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got err %v, want context.Canceled", workers, err)
		}
	}
}

func TestExactCancelledMidRun(t *testing.T) {
	g := gen.ErdosRenyi(20, 0.3, rng.New(7))
	for _, workers := range []int{1, 4} {
		ctx := newCountdownCtx(2)
		_, err := Exact(g, ObjOrdinary, Options{RunOpts: runopts.RunOpts{Workers: workers}, Alpha: 0.5, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got err %v, want context.Canceled", workers, err)
		}
	}
}

func TestExactContextDoesNotPerturbResult(t *testing.T) {
	// A live (never-cancelled) context must be invisible: same value, same
	// witness as the nil-context run.
	g := gen.ErdosRenyi(18, 0.3, rng.New(3))
	for _, obj := range []Objective{ObjOrdinary, ObjUnique, ObjWireless} {
		base, err := Exact(g, obj, Options{Alpha: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := Exact(g, obj, Options{Alpha: 0.5, Ctx: context.Background()})
		if err != nil {
			t.Fatal(err)
		}
		if base.Value != withCtx.Value || base.ArgSet != withCtx.ArgSet {
			t.Fatalf("%v: context run diverged: %v/%x vs %v/%x",
				obj, base.Value, base.ArgSet, withCtx.Value, withCtx.ArgSet)
		}
	}
}

func TestBipartiteCancelled(t *testing.T) {
	r := rng.New(5)
	b := gen.RandomBipartite(70, 40, 0.1, r) // |S| > 62 forces the pooled path
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MinBipartiteExpansionOpts(b, Options{MaxK: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
}

// TestBipartiteCancelledGray: the Gray-code walk (|S| ≤ 62, no size cap,
// 2^|S| within the budget) observes the context too — a cancelled
// context stops a 2^24-subset walk instead of running it to the end.
func TestBipartiteCancelledGray(t *testing.T) {
	b := gen.RandomBipartite(24, 48, 0.12, rng.New(5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MinBipartiteExpansionOpts(b, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	// Cancelled mid-walk: the countdown flips after the first look.
	_, err = MinBipartiteExpansionOpts(b, Options{Ctx: newCountdownCtx(1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-walk: got err %v, want context.Canceled", err)
	}
}
