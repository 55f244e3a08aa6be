package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Streaming edge-list ingestion.
//
// StreamEdgeList builds a CSR graph directly from a text stream in two
// passes without ever materializing a per-edge struct buffer or a map:
//
//  1. The text pass tokenizes each line with strict per-field integer
//     parsing (strconv.Atoi semantics, no trailing junk) and appends each
//     edge as a pair of int32s into fixed-size arc blocks — 8 bytes per
//     edge, allocated in 2 MiB slabs so there are no realloc-copy spikes.
//     When a header fixed n up front, degrees are counted on the fly.
//  2. The placement pass counting-sorts the arcs into an exactly sized
//     adjacency array, frees the arc blocks, then sorts and dedups each
//     row in place.
//
// Peak memory is O(n + m) words: at most 2m int32 arcs in blocks plus the
// 2m'-arc adjacency array (m' ≤ m after directed-duplicate collapse), an
// (n+1)-word offset array, an n-word cursor array, and a bounded scanner
// buffer. No intermediate structure is proportional to anything larger.

// IngestStats reports what a streaming ingestion pass consumed. Bytes
// counts input bytes as seen by the line scanner (each line plus one
// newline), Lines counts all input lines including comments and blanks,
// and Edges counts parsed edge records before duplicate collapse.
type IngestStats struct {
	Lines int64
	Edges int64
	Bytes int64
}

// arc blocks hold parsed (u, v) pairs flattened into int32 slabs. A slab
// is 1<<19 int32s = 2 MiB; full slabs are never reallocated or copied.
const arcBlockInts = 1 << 19

type arcStore struct {
	full [][]int32 // completed slabs, each exactly arcBlockInts long
	cur  []int32   // slab being filled
	n    int64     // total int32s stored (2 per edge)
}

func (a *arcStore) append2(u, v int32) {
	if len(a.cur)+2 > cap(a.cur) {
		if a.cur != nil {
			a.full = append(a.full, a.cur)
		}
		a.cur = make([]int32, 0, arcBlockInts)
	}
	a.cur = append(a.cur, u, v)
	a.n += 2
}

// each calls fn for every stored (u, v) pair in insertion order.
func (a *arcStore) each(fn func(u, v int32)) {
	for _, blk := range a.full {
		for i := 0; i < len(blk); i += 2 {
			fn(blk[i], blk[i+1])
		}
	}
	for i := 0; i < len(a.cur); i += 2 {
		fn(a.cur[i], a.cur[i+1])
	}
}

// release drops all slabs so the GC can reclaim them before the adjacency
// rows are canonicalized.
func (a *arcStore) release() {
	a.full, a.cur = nil, nil
}

// StreamEdgeList parses an edge list from r under opt and builds the CSR
// graph in O(n + m) words of memory (see the package comment above for the
// exact accounting). It accepts the same format as ReadEdgeListOptions —
// which is now a thin wrapper over this function — but never buffers the
// input: r can be a pipe, an HTTP request body, or a multi-gigabyte file.
func StreamEdgeList(r io.Reader, opt EdgeListOptions) (*Graph, error) {
	g, _, err := StreamEdgeListStats(r, opt)
	return g, err
}

// StreamEdgeListStats is StreamEdgeList returning ingestion statistics
// alongside the graph. Stats are valid even partially when an error is
// returned (they describe the input consumed up to the failure point).
func StreamEdgeListStats(r io.Reader, opt EdgeListOptions) (*Graph, IngestStats, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)

	var (
		st        IngestStats
		arcs      arcStore
		deg       []int32 // allocated once n is known; counts arcs per vertex
		headerN   = -1
		sawHeader bool
		maxID     = -1
		line      int64
		offset    int64 // byte offset of the current line start
	)
	// fail reports a parse error anchored at the offending line's first
	// byte; the per-edge line bookkeeping of the old buffered reader is
	// gone, so the scanner position is the sole source of error locations.
	fail := func(format string, args ...any) error {
		msg := fmt.Sprintf(format, args...)
		return fmt.Errorf("graph: line %d (byte offset %d): %s", line, offset, msg)
	}
	processLine := func(raw []byte) error {
		f0, f1, nf, junk := splitTwoFields(raw)
		if nf == 0 {
			return nil // blank or comment
		}
		if len(f0) == 1 && f0[0] == 'n' {
			// Header line: "n <count>".
			if sawHeader {
				return fail("duplicate header")
			}
			if nf != 2 || junk {
				return fail("malformed header %q", string(raw))
			}
			n, err := strconv.Atoi(string(f1))
			if err != nil || n < 0 {
				return fail("bad vertex count %q", string(f1))
			}
			if int64(n) > math.MaxInt32 {
				return fail("vertex count %d exceeds CSR id range", n)
			}
			if arcs.n > 0 {
				return fail("header after edges")
			}
			headerN, sawHeader = n, true
			deg = make([]int32, n+1)
			return nil
		}
		// Edge line: exactly two strictly-parsed integer fields.
		if !sawHeader && !opt.InferN {
			return fail("edge before header")
		}
		if nf != 2 || junk {
			return fail("malformed edge %q", string(raw))
		}
		u, ok1 := parseID(f0)
		v, ok2 := parseID(f1)
		if !ok1 || !ok2 {
			return fail("bad edge %q", string(raw))
		}
		if opt.OneBased {
			if u < 1 || v < 1 {
				return fail("vertex id < 1 in 1-based input: %q", string(raw))
			}
			u, v = u-1, v-1
		}
		if u < 0 || v < 0 || (sawHeader && (u >= headerN || v >= headerN)) {
			return fail("edge (%d,%d) out of range [0,%d)", u, v, headerN)
		}
		if u == v {
			return fail("self-loop at vertex %d", u)
		}
		if u >= math.MaxInt32 || v >= math.MaxInt32 {
			return fail("vertex id exceeds CSR id range in %q", string(raw))
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		arcs.append2(int32(u), int32(v))
		if deg != nil {
			// Counts live at index+1 so the prefix sum yields start offsets.
			deg[u+1]++
			deg[v+1]++
		}
		st.Edges++
		return nil
	}

	for sc.Scan() {
		raw := sc.Bytes()
		line++
		st.Lines++
		st.Bytes += int64(len(raw)) + 1
		if err := processLine(raw); err != nil {
			return nil, st, err
		}
		offset += int64(len(raw)) + 1
	}
	if err := sc.Err(); err != nil {
		return nil, st, err
	}

	n := headerN
	if !sawHeader {
		if !opt.InferN {
			return nil, st, fmt.Errorf("graph: missing header")
		}
		if maxID < 0 {
			return nil, st, fmt.Errorf("graph: empty input (no header, no edges)")
		}
		n = maxID + 1
	}
	if arcs.n > math.MaxInt32 {
		return nil, st, fmt.Errorf("graph: %d arcs exceed the int32 CSR offset range", arcs.n)
	}
	if deg == nil {
		// Headerless input: n was unknown during the text pass, so count
		// degrees now with one sweep over the arc blocks.
		deg = make([]int32, n+1)
		arcs.each(func(u, v int32) {
			deg[u+1]++
			deg[v+1]++
		})
	}

	// Counting-sort placement: prefix-sum the degree counts into offsets,
	// scatter the arcs, then free the blocks before canonicalizing rows.
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	offsets := deg // deg is consumed; reuse it as the offset array
	adj := make([]int32, arcs.n)
	cursors := make([]int32, n)
	copy(cursors, offsets[:n])
	arcs.each(func(u, v int32) {
		adj[cursors[u]] = v
		cursors[u]++
		adj[cursors[v]] = u
		cursors[v]++
	})
	arcs.release()

	out, newOff := canonicalizeAdj(n, offsets, adj)
	if len(out) < cap(out)*3/4 {
		// Heavy duplicate collapse (e.g. a fully directed export): reclaim
		// the dead capacity with one exact-size copy.
		exact := make([]int32, len(out))
		copy(exact, out)
		out = exact
	}
	return &Graph{n: n, m: len(out) / 2, offsets: newOff, adj: out}, st, nil
}

// splitTwoFields tokenizes one line into at most two whitespace-separated
// fields. It returns the two field slices, the field count (0 for blank or
// '#'-comment lines), and junk=true when a third field is present. Spaces,
// tabs, and a trailing '\r' count as separators, matching strings.Fields
// on the ASCII inputs this format allows.
func splitTwoFields(b []byte) (f0, f1 []byte, nf int, junk bool) {
	i := 0
	skip := func() {
		for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\v' || b[i] == '\f') {
			i++
		}
	}
	field := func() []byte {
		start := i
		for i < len(b) && b[i] != ' ' && b[i] != '\t' && b[i] != '\r' && b[i] != '\v' && b[i] != '\f' {
			i++
		}
		return b[start:i]
	}
	skip()
	if i == len(b) || b[i] == '#' {
		return nil, nil, 0, false
	}
	f0 = field()
	nf = 1
	skip()
	if i < len(b) {
		f1 = field()
		nf = 2
		skip()
		if i < len(b) {
			junk = true
		}
	}
	return f0, f1, nf, junk
}

// parseID parses a strict base-10 vertex id with strconv.Atoi semantics on
// the CSR id range: an optional sign followed by one or more ASCII digits
// and nothing else, of magnitude at most math.MaxInt32 (CSR ids are int32
// on every platform, so a 32-bit int can never wrap). It is
// allocation-free (no []byte→string conversion) and rejects anything
// strconv.Atoi would reject; the equivalence is differential-tested in
// stream_test.go.
func parseID(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + int64(c-'0'); v > math.MaxInt32 {
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return int(v), true
}

// canonicalizeAdj sorts each CSR row in place and drops duplicate
// neighbors, compacting the adjacency toward the front of adj. The
// returned slice aliases adj; newOff is the rebuilt offset array. Shared
// by Builder.Build and StreamEdgeListStats.
func canonicalizeAdj(n int, offsets, adj []int32) (out, newOff []int32) {
	out = adj[:0]
	newOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		lst := adj[offsets[v]:offsets[v+1]]
		sortInt32(lst)
		newOff[v] = int32(len(out))
		var prev int32 = -1
		for _, w := range lst {
			if w != prev {
				out = append(out, w)
				prev = w
			}
		}
	}
	newOff[n] = int32(len(out))
	return out, newOff
}
