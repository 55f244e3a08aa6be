// Package graph provides the undirected-graph and bipartite-graph substrate
// on which all expansion measurements, worst-case constructions, and the
// radio-network simulator operate.
//
// Graphs are immutable once built: a Builder accumulates edges and Build
// freezes them into a compressed sparse row (CSR) adjacency structure whose
// neighbor iteration is allocation-free. Vertices are dense integers
// 0..n-1. Self-loops are rejected and parallel edges are merged, matching
// the simple-graph setting of the paper.
package graph

import "fmt"

// Graph is an immutable simple undirected graph in CSR form.
type Graph struct {
	n       int
	m       int     // number of undirected edges
	offsets []int32 // len n+1
	adj     []int32 // len 2m, neighbors sorted increasing per vertex
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor slice of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NeighborRange returns the neighbor slices of the vertices lo..hi-1
// concatenated in vertex order, aliasing the graph's internal storage
// like Neighbors.
func (g *Graph) NeighborRange(lo, hi int) []int32 {
	return g.adj[g.offsets[lo]:g.offsets[hi]]
}

// HasEdge reports whether {u, v} is an edge, by binary search over the
// smaller adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	a := g.Neighbors(u)
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == int32(v)
}

// MaxDegree returns ∆(G), the maximum degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if dv := g.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// MinDegree returns the minimum degree, or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	d := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if dv := g.Degree(v); dv < d {
			d = dv
		}
	}
	return d
}

// AvgDegree returns 2m/n, or 0 for the empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// IsRegular reports whether every vertex has the same degree, and returns
// that degree (0 for the empty graph).
func (g *Graph) IsRegular() (bool, int) {
	if g.n == 0 {
		return true, 0
	}
	d := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if g.Degree(v) != d {
			return false, d
		}
	}
	return true, d
}

// Edges returns all undirected edges as (u, v) pairs with u < v, in
// lexicographic order. This allocates; it is intended for I/O and tests,
// not hot loops.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				out = append(out, [2]int{u, int(w)})
			}
		}
	}
	return out
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d, ∆=%d)", g.n, g.m, g.MaxDegree())
}

// Builder accumulates edges for a Graph. The zero value is not usable; call
// NewBuilder.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a builder for a graph on n vertices. It panics if n is
// negative.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge records the undirected edge {u, v}. Self-loops are rejected with
// an error; duplicate edges are tolerated and merged at Build time.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
	return nil
}

// MustAddEdge is AddEdge that panics on error; used by generators whose
// index arithmetic guarantees validity.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Build freezes the builder into an immutable Graph, merging duplicate
// edges. The builder may be reused afterwards (its edge list is preserved).
func (b *Builder) Build() *Graph {
	n := b.n
	// Counting sort of directed arcs by source gives CSR directly.
	deg := make([]int32, n+1)
	for _, e := range b.edges {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adj := make([]int32, 2*len(b.edges))
	next := make([]int32, n)
	copy(next, deg[:n])
	for _, e := range b.edges {
		adj[next[e[0]]] = e[1]
		next[e[0]]++
		adj[next[e[1]]] = e[0]
		next[e[1]]++
	}
	// Sort each adjacency list and drop duplicates in place, then copy to
	// exact size (the builder's arc array may be much larger than the
	// deduplicated result).
	out, newOff := canonicalizeAdj(n, deg, adj)
	final := make([]int32, len(out))
	copy(final, out)
	return &Graph{n: n, m: len(final) / 2, offsets: newOff, adj: final}
}

// sortInt32 sorts a small int32 slice. Insertion sort is used for short
// lists (the common case: adjacency lists of bounded-degree graphs) and a
// simple bottom-up merge otherwise.
func sortInt32(a []int32) {
	if len(a) <= 32 {
		for i := 1; i < len(a); i++ {
			x := a[i]
			j := i - 1
			for j >= 0 && a[j] > x {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = x
		}
		return
	}
	buf := make([]int32, len(a))
	for width := 1; width < len(a); width *= 2 {
		for lo := 0; lo < len(a); lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > len(a) {
				mid = len(a)
			}
			if hi > len(a) {
				hi = len(a)
			}
			mergeInt32(a[lo:mid], a[mid:hi], buf[lo:hi])
			copy(a[lo:hi], buf[lo:hi])
		}
	}
}

func mergeInt32(x, y, out []int32) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if x[i] <= y[j] {
			out[k] = x[i]
			i++
		} else {
			out[k] = y[j]
			j++
		}
		k++
	}
	for i < len(x) {
		out[k] = x[i]
		i++
		k++
	}
	for j < len(y) {
		out[k] = y[j]
		j++
		k++
	}
}
