// Package bitset provides a dense, fixed-capacity bit set used throughout
// the expansion solvers for representing vertex subsets.
//
// The hot loops of the library — exhaustive expansion measurement, unique
// neighborhood computation, and the radio simulator's transmit/receive
// bookkeeping — all operate on vertex sets. A packed []uint64 representation
// keeps those loops allocation-free and cache-friendly.
package bitset

import (
	"fmt"
	"iter"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set over the universe {0, 1, ..., n-1}.
// The zero value is an empty set of capacity zero; use New to create a set
// with a given capacity. Methods that combine two sets require equal
// capacity and panic otherwise: mixing universes is always a programming
// error in this code base, never a recoverable condition.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity for n elements.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a set of capacity n containing exactly the given
// elements. It panics if any element is out of range.
func FromIndices(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Len returns the capacity of the set (the size of the universe, not the
// number of elements currently contained; see Count).
func (s *Set) Len() int { return s.n }

// Add inserts element i. It panics if i is out of range.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes element i. It panics if i is out of range.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether element i is present. It panics if i is out of
// range.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every element of the universe to the set.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of t. Capacities must match.
func (s *Set) Copy(t *Set) {
	s.compat(t)
	copy(s.words, t.words)
}

// Union sets s = s ∪ t.
func (s *Set) Union(t *Set) {
	s.compat(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Intersect sets s = s ∩ t.
func (s *Set) Intersect(t *Set) {
	s.compat(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// Subtract sets s = s \ t.
func (s *Set) Subtract(t *Set) {
	s.compat(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// AccumulateCover ORs row into s while recording in multi every element of
// row that was already present in s. With s as the "hit at least once"
// accumulator and multi as the "hit at least twice" accumulator, repeated
// calls compute single- and multiple-coverage of a family of rows in one
// pass per word — the radio engine's word-parallel collision step, which
// never needs a per-element counter. Capacities must match.
func (s *Set) AccumulateCover(multi, row *Set) {
	s.compat(multi)
	s.compat(row)
	rw := row.words
	// Four-wide unroll: this is the radio engine's innermost loop, and the
	// compiler does not unroll it on its own.
	sw, mw := s.words[:len(rw)], multi.words[:len(rw)]
	i := 0
	for ; i+4 <= len(rw); i += 4 {
		w0, w1, w2, w3 := rw[i], rw[i+1], rw[i+2], rw[i+3]
		mw[i] |= sw[i] & w0
		sw[i] |= w0
		mw[i+1] |= sw[i+1] & w1
		sw[i+1] |= w1
		mw[i+2] |= sw[i+2] & w2
		sw[i+2] |= w2
		mw[i+3] |= sw[i+3] & w3
		sw[i+3] |= w3
	}
	for ; i < len(rw); i++ {
		w := rw[i]
		mw[i] |= sw[i] & w
		sw[i] |= w
	}
}

// ScatterCover is the element-wise form of AccumulateCover for sparse
// rows: each element of elems is added to s, with elements already in s
// recorded in multi. Branchless per element, so rows far sparser than the
// word width never pay a full-word sweep. Elements must be in range;
// capacities must match.
func (s *Set) ScatterCover(multi *Set, elems []int32) {
	s.compat(multi)
	// Reslicing multi to s's length lets the compiler drop the second
	// bounds check: this loop is the CSR scatter's per-arc cost.
	sw := s.words
	mw := multi.words[:len(sw)]
	for _, e := range elems {
		wi, bit := int(e)>>6, uint64(1)<<(uint(e)&63)
		w := sw[wi]
		mw[wi] |= w & bit
		sw[wi] = w | bit
	}
}

// IntersectionCount returns |s ∩ t| without allocating.
func (s *Set) IntersectionCount(t *Set) int {
	s.compat(t)
	c := 0
	for i, w := range t.words {
		c += bits.OnesCount64(s.words[i] & w)
	}
	return c
}

// SubtractCount returns |s \ t| without allocating.
func (s *Set) SubtractCount(t *Set) int {
	s.compat(t)
	c := 0
	for i, w := range t.words {
		c += bits.OnesCount64(s.words[i] &^ w)
	}
	return c
}

// Equal reports whether s and t contain the same elements. Capacities must
// match.
func (s *Set) Equal(t *Set) bool {
	s.compat(t)
	for i, w := range t.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// IsSubsetOf reports whether every element of s is in t.
func (s *Set) IsSubsetOf(t *Set) bool {
	s.compat(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Disjoint reports whether s ∩ t is empty.
func (s *Set) Disjoint(t *Set) bool {
	s.compat(t)
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Empty reports whether the set contains no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element of the set in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// All returns an iterator over the elements of the set in increasing order,
// for use with range-over-func. The set must not be mutated during
// iteration.
func (s *Set) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for wi, w := range s.words {
			base := wi * wordBits
			for w != 0 {
				if !yield(base + bits.TrailingZeros64(w)) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// Indices returns the elements of the set in increasing order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// AppendIndices appends the elements of the set in increasing order to dst
// and returns the extended slice — the allocation-free form of Indices for
// hot loops that reuse a member buffer.
func (s *Set) AppendIndices(dst []int) []int {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Next returns the smallest element ≥ i, or -1 if none exists.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// NextZero returns the smallest index ≥ i that is NOT in the set, or -1 if
// every element of [i, n) is present.
func (s *Set) NextZero(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	if w := ^s.words[wi] >> uint(i%wordBits); w != 0 {
		if r := i + bits.TrailingZeros64(w); r < s.n {
			return r
		}
		return -1
	}
	for wi++; wi < len(s.words); wi++ {
		if w := ^s.words[wi]; w != 0 {
			if r := wi*wordBits + bits.TrailingZeros64(w); r < s.n {
				return r
			}
			return -1
		}
	}
	return -1
}

// CountRange returns the number of elements in [lo, hi). Bounds are clamped
// to the universe.
func (s *Set) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return 0
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if loW == hiW {
		return bits.OnesCount64(s.words[loW] & loMask & hiMask)
	}
	c := bits.OnesCount64(s.words[loW] & loMask)
	for wi := loW + 1; wi < hiW; wi++ {
		c += bits.OnesCount64(s.words[wi])
	}
	return c + bits.OnesCount64(s.words[hiW]&hiMask)
}

// Compare orders two sets by their value as |words|·64-bit unsigned
// integers (bit i has weight 2^i): -1 if s < t, 0 if equal, +1 if s > t.
// This is the tie-break order used by the expansion engine's deterministic
// merge. Capacities must match.
func (s *Set) Compare(t *Set) int {
	s.compat(t)
	for i := len(s.words) - 1; i >= 0; i-- {
		switch {
		case s.words[i] < t.words[i]:
			return -1
		case s.words[i] > t.words[i]:
			return 1
		}
	}
	return 0
}

// FirstCombination resets the set to {0, 1, ..., k-1}, the numerically
// smallest k-element subset of the universe. It panics if k is out of
// range.
func (s *Set) FirstCombination(k int) {
	if k < 0 || k > s.n {
		panic(fmt.Sprintf("bitset: combination size %d out of range [0,%d]", k, s.n))
	}
	s.Clear()
	s.setRange(0, k)
}

// NextCombination advances the set to the next k-element subset of the
// universe in increasing numeric order (Gosper's hack generalized to the
// multiword representation, where k = Count()). It returns false — leaving
// the set unchanged — when the current set is the numerically largest
// k-combination. The empty set has no successor.
func (s *Set) NextCombination() bool {
	lo := s.Next(0)
	if lo < 0 {
		return false
	}
	// The lowest run of ones spans [lo, p); the successor clears the run,
	// sets bit p, and packs the remaining run at the bottom:
	//   ...0111100 -> ...1000011  (runLen-1 low bits survive).
	p := s.NextZero(lo)
	if p < 0 {
		return false // run reaches the top: numerically largest combination
	}
	runLen := p - lo
	s.clearRange(lo, p)
	s.Add(p)
	s.setRange(0, runLen-1)
	return true
}

// setRange adds every element of [lo, hi) to the set. Callers guarantee
// bounds are within the universe.
func (s *Set) setRange(lo, hi int) {
	if lo >= hi {
		return
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if loW == hiW {
		s.words[loW] |= loMask & hiMask
		return
	}
	s.words[loW] |= loMask
	for wi := loW + 1; wi < hiW; wi++ {
		s.words[wi] = ^uint64(0)
	}
	s.words[hiW] |= hiMask
}

// clearRange removes every element of [lo, hi) from the set. Callers
// guarantee bounds are within the universe.
func (s *Set) clearRange(lo, hi int) {
	if lo >= hi {
		return
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if loW == hiW {
		s.words[loW] &^= loMask & hiMask
		return
	}
	s.words[loW] &^= loMask
	for wi := loW + 1; wi < hiW; wi++ {
		s.words[wi] = 0
	}
	s.words[hiW] &^= hiMask
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

func (s *Set) compat(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, t.n))
	}
}

// trim clears the unused high bits in the last word so Count and Equal stay
// correct after Fill.
func (s *Set) trim() {
	if r := s.n % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(r)) - 1
	}
}
