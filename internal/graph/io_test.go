package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 5}} {
		b.MustAddEdge(e[0], e[1])
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed dims: %v vs %v", g2, g)
	}
	e1, e2 := g.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d changed: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nn 3\n# another\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",             // missing header
		"0 1\n",        // edge before header
		"n 3\nn 4\n",   // duplicate header
		"n x\n",        // bad count
		"n 3\n0\n",     // malformed edge
		"n 3\n0 5\n",   // out of range
		"n 3\n1 1\n",   // self loop
		"n\n",          // short header
		"n 3\n0 1 2\n", // too many fields
		"n -1\n",       // negative count
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestReadEdgeListOptions(t *testing.T) {
	cases := []struct {
		name  string
		in    string
		opt   EdgeListOptions
		n, m  int
		isErr bool
	}{
		{
			name: "snap-headerless",
			in:   "# Directed graph (each unordered pair once)\n# Nodes: 4 Edges: 3\n0\t1\n1\t2\n2\t3\n",
			opt:  EdgeListOptions{InferN: true},
			n:    4, m: 3,
		},
		{
			name: "snap-one-based",
			in:   "# FromNodeId\tToNodeId\n1\t2\n2\t3\n3\t1\n",
			opt:  EdgeListOptions{InferN: true, OneBased: true},
			n:    3, m: 3,
		},
		{
			name: "whitespace-runs",
			in:   "n 3\n  0   1 \n\t1\t\t2\t\n",
			opt:  EdgeListOptions{},
			n:    3, m: 2,
		},
		{
			name: "directed-both-ways-collapse",
			in:   "0 1\n1 0\n1 2\n2 1\n",
			opt:  EdgeListOptions{InferN: true},
			n:    3, m: 2,
		},
		{
			name: "header-wins-over-inference",
			in:   "n 10\n0 1\n",
			opt:  EdgeListOptions{InferN: true},
			n:    10, m: 1,
		},
		{
			name: "one-based-with-header",
			in:   "n 3\n1 2\n2 3\n",
			opt:  EdgeListOptions{OneBased: true},
			n:    3, m: 2,
		},
		{
			name: "isolated-high-id-sets-n",
			in:   "0 1\n5 6\n",
			opt:  EdgeListOptions{InferN: true},
			n:    7, m: 2,
		},
		{
			name:  "zero-id-in-one-based",
			in:    "0 1\n",
			opt:   EdgeListOptions{InferN: true, OneBased: true},
			isErr: true,
		},
		{
			name:  "headerless-without-infern",
			in:    "0 1\n",
			opt:   EdgeListOptions{},
			isErr: true,
		},
		{
			name:  "empty-with-infern",
			in:    "# only comments\n",
			opt:   EdgeListOptions{InferN: true},
			isErr: true,
		},
		{
			name:  "header-after-edges",
			in:    "0 1\nn 5\n",
			opt:   EdgeListOptions{InferN: true},
			isErr: true,
		},
		{
			name:  "self-loop-inferred",
			in:    "2 2\n",
			opt:   EdgeListOptions{InferN: true},
			isErr: true,
		},
		{
			// 100000002725642245 wraps to 5 in a 32-bit int: the id must
			// be rejected, not read as the edge 0–5.
			name:  "id-past-int32",
			in:    "n 8\n0 100000002725642245\n",
			opt:   EdgeListOptions{},
			isErr: true,
		},
		{
			name:  "out-of-range-vs-header",
			in:    "n 2\n1 2\n",
			opt:   EdgeListOptions{InferN: true},
			isErr: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := ReadEdgeListOptions(strings.NewReader(c.in), c.opt)
			if c.isErr {
				if err == nil {
					t.Fatalf("input %q accepted as %v", c.in, g)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != c.n || g.M() != c.m {
				t.Fatalf("got n=%d m=%d, want n=%d m=%d", g.N(), g.M(), c.n, c.m)
			}
		})
	}
}

func TestBipartiteEdgeListRoundTrip(t *testing.T) {
	bb := NewBipartiteBuilder(3, 4)
	for _, e := range [][2]int{{0, 0}, {0, 3}, {1, 1}, {2, 2}} {
		bb.MustAddEdge(e[0], e[1])
	}
	b := bb.Build()
	var buf bytes.Buffer
	if err := WriteBipartiteEdgeList(&buf, b); err != nil {
		t.Fatal(err)
	}
	b2, err := ReadBipartiteEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b2.NS() != b.NS() || b2.NN() != b.NN() || b2.M() != b.M() {
		t.Fatal("round trip changed dims")
	}
	for u := 0; u < b.NS(); u++ {
		a, c := b.NeighborsOfS(u), b2.NeighborsOfS(u)
		if len(a) != len(c) {
			t.Fatalf("degree changed at %d", u)
		}
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("neighbor changed at %d", u)
			}
		}
	}
}

func TestBipartiteReadErrors(t *testing.T) {
	cases := []string{
		"",
		"0 1\n",
		"bipartite 2 2\nbipartite 2 2\n",
		"bipartite 2\n",
		"bipartite 2 2\n0 9\n",
		"bipartite 2 2\nzz zz\n",
	}
	for _, in := range cases {
		if _, err := ReadBipartiteEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

// Property: serialization round-trips arbitrary graphs exactly.
func TestQuickIORoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 25
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := int(raw[i])%n, int(raw[i+1])%n
			if u != v {
				b.MustAddEdge(u, v)
			}
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		if g.N() != g2.N() || g.M() != g2.M() {
			return false
		}
		e1, e2 := g.Edges(), g2.Edges()
		for i := range e1 {
			if e1[i] != e2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
