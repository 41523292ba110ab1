// Package idset is the report kernel's answer set: a two-level bitmap
// over a dense id universe [0, n). The static indexes add every id a
// query finds — in whatever order their blocks are scanned, duplicates
// included — and drain the set once at the end of the query, which
// yields the ids ascending and deduplicated in O(n/4096 + t) word
// operations instead of an O(t log t) comparison sort.
package idset

import "math/bits"

// Set is a two-level bitmap: bit id of mark is set when id is a member,
// and bit w of sum is set when mark[w] is non-zero. A Set is
// single-owner, like the index that holds it.
type Set struct {
	mark []uint64
	sum  []uint64
}

// New returns an empty set over the ids [0, n), in one allocation of
// n/8 + n/512 bytes.
func New(n int) Set {
	words := (n + 63) / 64
	buf := make([]uint64, words+(words+63)/64)
	return Set{mark: buf[:words:words], sum: buf[words:]}
}

// Add inserts id; adding a member again is a no-op.
func (s *Set) Add(id int32) {
	w := uint32(id) >> 6
	s.mark[w] |= 1 << (uint32(id) & 63)
	s.sum[w>>6] |= 1 << (w & 63)
}

// AppendSortedAndClear appends the members in ascending order to out,
// leaves the set empty, and returns the extended slice. Only non-zero
// words are visited below the summary level, so the cost beyond the
// n/4096 summary words is proportional to the number of members.
func (s *Set) AppendSortedAndClear(out []int) []int {
	for si, sw := range s.sum {
		if sw == 0 {
			continue
		}
		s.sum[si] = 0
		for ; sw != 0; sw &= sw - 1 {
			wi := si<<6 | bits.TrailingZeros64(sw)
			w := s.mark[wi]
			s.mark[wi] = 0
			for ; w != 0; w &= w - 1 {
				out = append(out, wi<<6|bits.TrailingZeros64(w))
			}
		}
	}
	return out
}
