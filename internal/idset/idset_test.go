package idset

import (
	"encoding/binary"
	"slices"
	"testing"
)

// sortDedup is the reference: what a comparison sort plus a duplicate
// sweep would have produced.
func sortDedup(ids []int32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// checkDrain adds ids to s and requires the drain to append exactly
// sort+dedup(ids) after the caller's prefix, and to leave s empty.
func checkDrain(t *testing.T, s *Set, ids []int32) {
	t.Helper()
	for _, id := range ids {
		s.Add(id)
	}
	prefix := []int{-7, -3}
	got := s.AppendSortedAndClear(slices.Clone(prefix))
	if want := append(slices.Clone(prefix), sortDedup(ids)...); !slices.Equal(got, want) {
		t.Fatalf("drain of %d adds: got %d ids %v…, want %d", len(ids), len(got)-2, got[:min(len(got), 8)], len(want)-2)
	}
	if again := s.AppendSortedAndClear(nil); len(again) != 0 {
		t.Fatalf("set not empty after drain: %v", again)
	}
}

// FuzzIDSet drives random add sequences — duplicates, id 0, id n−1,
// universes that are not a multiple of 64 or 4096 — and requires the
// drain to equal sort+dedup, the set to be empty afterwards, and a
// second use of the same set to be clean.
func FuzzIDSet(f *testing.F) {
	for _, n := range []uint32{1, 2, 63, 64, 65, 4095, 4096, 4097, 10_000, 65_537} {
		f.Add(n, []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 7, 1, 2, 3}, true)
		f.Add(n, []byte{}, true)
		f.Add(n, []byte{9, 9, 9, 9, 9, 9, 9, 9}, false)
	}
	f.Fuzz(func(t *testing.T, nRaw uint32, data []byte, ends bool) {
		n := 1 + int(nRaw%70_000)
		var ids []int32
		for ; len(data) >= 4; data = data[4:] {
			ids = append(ids, int32(binary.LittleEndian.Uint32(data)%uint32(n)))
		}
		if ends {
			ids = append(ids, 0, int32(n-1), 0)
		}
		s := New(n)
		checkDrain(t, &s, ids)
		// Second use: a different sequence over the same set must not see
		// anything the first one left behind.
		slices.Reverse(ids)
		checkDrain(t, &s, ids[:len(ids)/2])
	})
}

// TestDenseUniverse fills a universe that ends mid-word and mid-summary
// word and drains it whole.
func TestDenseUniverse(t *testing.T) {
	const n = 2*4096 + 64 + 17
	ids := make([]int32, 0, 2*n)
	for i := n - 1; i >= 0; i-- {
		ids = append(ids, int32(i), int32(i))
	}
	full, empty := New(n), New(0)
	checkDrain(t, &full, ids)
	checkDrain(t, &empty, nil)
}
