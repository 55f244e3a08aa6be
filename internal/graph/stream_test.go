package graph

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// referenceReadEdgeList is a deliberately naive buffered implementation of
// the edge-list grammar — strings.Fields tokenization, strconv.Atoi per
// field, every edge buffered, Builder at the end. It exists only as the
// differential oracle for the streaming ingester.
func referenceReadEdgeList(r io.Reader, opt EdgeListOptions) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	headerN, sawHeader := -1, false
	type edge struct{ u, v int }
	var edges []edge
	maxID := -1
	for _, text := range strings.Split(string(data), "\n") {
		text = strings.TrimSpace(text)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "n" {
			if sawHeader || len(fields) != 2 || len(edges) > 0 {
				return nil, fmt.Errorf("reference: bad header %q", text)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("reference: bad count %q", text)
			}
			headerN, sawHeader = n, true
			continue
		}
		if !sawHeader && !opt.InferN {
			return nil, fmt.Errorf("reference: edge before header")
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("reference: malformed edge %q", text)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("reference: bad edge %q", text)
		}
		if opt.OneBased {
			if u < 1 || v < 1 {
				return nil, fmt.Errorf("reference: id < 1 in %q", text)
			}
			u, v = u-1, v-1
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, edge{u, v})
	}
	n := headerN
	if !sawHeader {
		if maxID < 0 {
			return nil, fmt.Errorf("reference: empty input")
		}
		n = maxID + 1
	}
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v); err != nil {
			return nil, fmt.Errorf("reference: %v", err)
		}
	}
	return b.Build(), nil
}

// optsFor maps a testdata file to the options it needs.
func optsFor(name string) EdgeListOptions {
	switch {
	case strings.Contains(name, "snap"):
		return EdgeListOptions{InferN: true}
	case strings.Contains(name, "onebased"):
		return EdgeListOptions{OneBased: true, InferN: true}
	default:
		return EdgeListOptions{}
	}
}

// TestStreamMatchesBufferedTestdata is the digest-equality property test:
// streaming ingestion must produce a bit-identical CSR (same SHA-256
// digest) as the buffered reference on every testdata edge list.
func TestStreamMatchesBufferedTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.edges"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata edge lists found: %v", err)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			opt := optsFor(path)
			want, err := referenceReadEdgeList(strings.NewReader(string(data)), opt)
			if err != nil {
				t.Fatalf("reference read: %v", err)
			}
			got, st, err := StreamEdgeListStats(strings.NewReader(string(data)), opt)
			if err != nil {
				t.Fatalf("streaming read: %v", err)
			}
			if DigestString(got) != DigestString(want) {
				t.Fatalf("digest mismatch: streaming %s vs buffered %s (%v vs %v)",
					DigestString(got), DigestString(want), got, want)
			}
			if !Equal(got, want) {
				t.Fatal("Equal disagrees with digest equality")
			}
			if st.Edges == 0 || st.Lines == 0 || st.Bytes == 0 {
				t.Fatalf("implausible ingest stats: %+v", st)
			}
		})
	}
}

// TestStreamMatchesBufferedSynthetic extends the digest property to
// generated inputs: random recursive trees plus extra edges at several
// scales, fed once through the streaming path and once through the
// buffered reference.
func TestStreamMatchesBufferedSynthetic(t *testing.T) {
	cases := []struct {
		n, extra int
		seed     uint64
	}{
		{2, 0, 1},
		{17, 40, 2},
		{257, 1000, 3},
		{5000, 20000, 4},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n=%d/extra=%d", c.n, c.extra), func(t *testing.T) {
			text, err := io.ReadAll(SynthEdgeList(c.n, c.extra, c.seed))
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceReadEdgeList(strings.NewReader(string(text)), EdgeListOptions{})
			if err != nil {
				t.Fatalf("reference read: %v", err)
			}
			got, err := StreamEdgeList(strings.NewReader(string(text)), EdgeListOptions{})
			if err != nil {
				t.Fatalf("streaming read: %v", err)
			}
			if DigestString(got) != DigestString(want) {
				t.Fatalf("digest mismatch on synthetic input")
			}
			// The same parameters must regenerate the same stream.
			again, err := StreamEdgeList(SynthEdgeList(c.n, c.extra, c.seed), EdgeListOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if DigestString(again) != DigestString(got) {
				t.Fatal("SynthEdgeList is not deterministic")
			}
		})
	}
}

// TestStreamStrictTokenRejection covers the satellite fix: fmt.Sscanf used
// to parse "1 2x" as edge (1,2); every field must now be a strict integer
// in both strict and SNAP (InferN/OneBased) modes.
func TestStreamStrictTokenRejection(t *testing.T) {
	type tc struct {
		name  string
		input string
		opt   EdgeListOptions
		ok    bool
	}
	cases := []tc{
		{"trailing-junk-strict", "n 3\n1 2x\n", EdgeListOptions{}, false},
		{"trailing-junk-snap", "1 2x\n", EdgeListOptions{InferN: true}, false},
		{"trailing-junk-onebased", "1 2x\n", EdgeListOptions{OneBased: true, InferN: true}, false},
		{"leading-junk", "n 3\nx1 2\n", EdgeListOptions{}, false},
		{"hex-prefix", "n 3\n0x1 2\n", EdgeListOptions{}, false},
		{"float-id", "n 3\n1.0 2\n", EdgeListOptions{}, false},
		{"inline-comment", "n 3\n1 2 # note\n", EdgeListOptions{}, false},
		{"three-fields", "n 4\n1 2 3\n", EdgeListOptions{}, false},
		{"junk-header-count", "n 3z\n0 1\n", EdgeListOptions{}, false},
		{"header-extra-field", "n 3 4\n0 1\n", EdgeListOptions{}, false},
		{"empty-sign", "n 3\n- 2\n", EdgeListOptions{}, false},
		{"double-sign", "n 3\n--1 2\n", EdgeListOptions{}, false},
		{"plus-sign-ok", "n 3\n+1 2\n", EdgeListOptions{}, true},
		{"tabs-ok", "n 3\n1\t2\n", EdgeListOptions{}, true},
		{"crlf-ok", "n 3\r\n1 2\r\n", EdgeListOptions{}, true},
		{"snap-tabs-ok", "# Nodes: 3\n0\t1\n1\t2\n", EdgeListOptions{InferN: true}, true},
		{"whitespace-runs-ok", "n 3\n  1   2  \n", EdgeListOptions{}, true},
		{"huge-id", "n 3\n1 99999999999999999999\n", EdgeListOptions{}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := StreamEdgeList(strings.NewReader(c.input), c.opt)
			if c.ok && err != nil {
				t.Fatalf("want success, got %v", err)
			}
			if !c.ok {
				if err == nil {
					t.Fatalf("want error, parsed %v", g)
				}
				if !strings.Contains(err.Error(), "line ") {
					t.Fatalf("error lacks line anchor: %v", err)
				}
			}
		})
	}
}

// TestStreamErrorOffsets checks that parse errors report the byte offset
// of the offending line's first byte.
func TestStreamErrorOffsets(t *testing.T) {
	input := "n 4\n0 1\n1 2x\n"
	_, _, err := StreamEdgeListStats(strings.NewReader(input), EdgeListOptions{})
	if err == nil {
		t.Fatal("want error")
	}
	wantOffset := int64(len("n 4\n0 1\n"))
	want := fmt.Sprintf("line 3 (byte offset %d)", wantOffset)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

// TestStreamStats pins the stats contract on a known input.
func TestStreamStats(t *testing.T) {
	input := "# c\nn 3\n0 1\n\n1 2\n"
	g, st, err := StreamEdgeListStats(strings.NewReader(input), EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got %v", g)
	}
	if st.Lines != 5 || st.Edges != 2 || st.Bytes != int64(len(input)) {
		t.Fatalf("stats %+v", st)
	}
}

// TestParseIDMatchesAtoi differential-tests the zero-copy field parser
// against strconv.Atoi on a corpus of accept and reject tokens: parseID
// accepts exactly what Atoi accepts with magnitude ≤ math.MaxInt32, on
// every int width.
func TestParseIDMatchesAtoi(t *testing.T) {
	tokens := []string{
		"0", "1", "42", "007", "123456789", "999999999999999999",
		"2147483647", "2147483648", "-2147483647", "-2147483648",
		"100000002725642245", "00000000000000000000001",
		"-1", "-0", "+5", "+", "-", "", " ", "1 ", " 1", "1x", "x1",
		"0x10", "1.5", "1e3", "--1", "+-1", "１", "٤٢",
	}
	for _, tok := range tokens {
		got, ok := parseID([]byte(tok))
		want, err := strconv.Atoi(tok)
		inRange := err == nil && want >= -math.MaxInt32 && want <= math.MaxInt32
		if ok != inRange {
			t.Fatalf("parseID(%q) ok=%v, Atoi=%d err=%v", tok, ok, want, err)
		}
		if ok && got != want {
			t.Fatalf("parseID(%q)=%d, Atoi=%d", tok, got, want)
		}
	}
}

// TestStreamLargeHeaderless exercises the deferred degree-count path (no
// header, n unknown until EOF) across more than one arc block.
func TestStreamLargeHeaderless(t *testing.T) {
	var sb strings.Builder
	n := 700
	for v := 1; v < n; v++ {
		for k := 0; k < 600 && k < v; k++ { // ~420k edges → >1 slab
			fmt.Fprintf(&sb, "%d %d\n", v, (v+k*37)%v)
		}
	}
	text := sb.String()
	want, err := referenceReadEdgeList(strings.NewReader(text), EdgeListOptions{InferN: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := StreamEdgeList(strings.NewReader(text), EdgeListOptions{InferN: true})
	if err != nil {
		t.Fatal(err)
	}
	if DigestString(got) != DigestString(want) {
		t.Fatal("multi-block headerless digest mismatch")
	}
}
