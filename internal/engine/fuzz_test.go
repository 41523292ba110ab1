package engine

import (
	"math"
	"slices"
	"sort"
	"testing"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/geom"
	"linconstraint/internal/index"
)

// refMerge is the engine's previous merge kernel, kept as the reference
// the loser tree is pinned against: a linear scan over the run heads,
// picking the strictly smallest head with ties to the lowest run index.
func refMerge[T any](runs [][]T, less func(a, b T) bool, limit int) []T {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if limit >= 0 && limit < total {
		total = limit
	}
	out := make([]T, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		var bestV T
		for si, r := range runs {
			if heads[si] >= len(r) {
				continue
			}
			if v := r[heads[si]]; best < 0 || less(v, bestV) {
				best, bestV = si, v
			}
		}
		if best < 0 {
			break
		}
		out = append(out, bestV)
		heads[best]++
	}
	return out
}

// FuzzMergeSorted: for any multiset of ids dealt into any number of
// sorted per-shard lists — round-robin or contiguous chunks — the
// loser-tree merge must equal both the sorted concatenation and the old
// linear-scan merge.
func FuzzMergeSorted(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3))
	f.Add([]byte{0, 0, 0, 255, 255}, uint8(8))
	f.Add([]byte{7}, uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, shards uint8) {
		s := 1 + int(shards)%8
		all := make([]int, len(data))
		for i, b := range data {
			all[i] = int(b)
		}
		sort.Ints(all)

		var heads, loser []int32
		merge := func(runs [][]int) []int {
			return loserMerge(nil, runs, &heads, &loser, intLess, -1)
		}

		// Scheme 1: round-robin deal of the sorted ids (what the engine
		// produces: each shard's list is sorted).
		rr := make([][]int, s)
		for i, v := range all {
			rr[i%s] = append(rr[i%s], v)
		}
		if got := merge(rr); !equalInts(got, refMerge(rr, intLess, -1)) || !equalInts(got, all) {
			t.Fatalf("round-robin: got %v, want %v", got, all)
		}

		// Scheme 2: contiguous chunks, including empty shards.
		ch := make([][]int, s)
		for i := 0; i < s; i++ {
			lo, hi := i*len(all)/s, (i+1)*len(all)/s
			ch[i] = all[lo:hi]
		}
		if got := merge(ch); !equalInts(got, refMerge(ch, intLess, -1)) || !equalInts(got, all) {
			t.Fatalf("chunks: got %v, want %v", got, all)
		}
	})
}

// FuzzMergeNeighbors: dealing any neighbor multiset across shards and
// merging the per-shard (distance, id)-sorted lists must produce the
// global k nearest in (distance, id) order — including duplicate
// distances straddling the k cutoff — and must match the old
// linear-scan merge element for element.
func FuzzMergeNeighbors(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{5, 1, 1, 3, 200, 7, 7, 7}, uint8(3), uint8(4))
	f.Add([]byte{0, 0, 0, 0}, uint8(2), uint8(2))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(5), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, shards, kk uint8) {
		s := 1 + int(shards)%8
		k := 1 + int(kk)%32
		all := make([]chan3d.Neighbor, len(data))
		for i, b := range data {
			// Coarse distances force ties; the id is the tiebreak.
			all[i] = chan3d.Neighbor{ID: i, Dist2: float64(b % 16)}
		}
		byDistID := func(ns []chan3d.Neighbor) func(i, j int) bool {
			return func(i, j int) bool {
				if ns[i].Dist2 != ns[j].Dist2 {
					return ns[i].Dist2 < ns[j].Dist2
				}
				return ns[i].ID < ns[j].ID
			}
		}
		runs := make([][]chan3d.Neighbor, s)
		for _, n := range all {
			runs[n.ID%s] = append(runs[n.ID%s], n)
		}
		for i := range runs {
			sort.Slice(runs[i], byDistID(runs[i]))
		}
		want := append([]chan3d.Neighbor(nil), all...)
		sort.Slice(want, byDistID(want))
		if len(want) > k {
			want = want[:k]
		}
		var heads, loser []int32
		got := loserMerge(nil, runs, &heads, &loser, neighborLess, k)
		ref := refMerge(runs, neighborLess, k)
		if len(got) != len(want) || len(got) != len(ref) {
			t.Fatalf("got %d neighbors, want %d (ref %d)", len(got), len(want), len(ref))
		}
		for i := range got {
			if got[i] != want[i] || got[i] != ref[i] {
				t.Fatalf("neighbor %d: %+v, want %+v (ref %+v)", i, got[i], want[i], ref[i])
			}
		}
	})
}

// FuzzMergeRecords: 3-d records on a coarse lattice — many shared first
// coordinates, −0 beside +0, and duplicates — dealt across 1–9 sorted
// runs must merge to exactly the reference merge under the full record
// order, element for element and copy for copy: where head keys are
// equal, the full order and its tie-break toward the lower run decide.
// Every head key must also agree with that order wherever it decides.
func FuzzMergeRecords(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(2))
	f.Add([]byte{5, 0, 5, 1, 5, 2, 30, 3, 31, 4, 124, 5}, uint8(8))
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 2, 0, 2, 1}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, shards uint8) {
		lattice := [5]float64{-1, math.Copysign(0, -1), 0, 0.5, 1}
		s := 1 + int(shards)%9
		runs := make([][]index.Record, s)
		// Two bytes per record: its three coordinates, then its run.
		for i := 0; i+1 < len(data); i += 2 {
			c := int(data[i])
			pd := geom.PointD{lattice[c%5], lattice[c/5%5], lattice[c/25%5]}
			ri := int(data[i+1]) % s
			runs[ri] = append(runs[ri], index.Record{PD: pd})
		}
		var all []index.Record
		for _, r := range runs {
			slices.SortStableFunc(r, index.Record.Compare)
			all = append(all, r...)
		}
		// Along the full order keys never fall, and equal records share a
		// key: so a smaller key always means a smaller record.
		slices.SortFunc(all, index.Record.Compare)
		for i := 1; i < len(all); i++ {
			a, b := all[i-1], all[i]
			if c, ka, kb := a.Compare(b), recKey(&a), recKey(&b); ka > kb || c == 0 && ka != kb {
				t.Fatalf("records %v, %v (Compare %d) have keys %#x, %#x", a.PD, b.PD, c, ka, kb)
			}
		}
		var heads, loser []int32
		got := loserMerge(nil, runs, &heads, &loser, recLess, -1)
		want := refMerge(runs, recLess, -1)
		if len(got) != len(want) {
			t.Fatalf("%d merged, want %d", len(got), len(want))
		}
		for i := range got {
			if &got[i].PD[0] != &want[i].PD[0] { // the same copy, so ±0 and tie-breaks match too
				t.Fatalf("record %d: %v, want %v", i, got[i].PD, want[i].PD)
			}
		}
	})
}
