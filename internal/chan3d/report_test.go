package chan3d

import (
	"math/rand"
	"slices"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/workload"
)

// TestReportIOGolden makes "the report kernel performs the block reads
// it always did, in the order it always did" a regression test for the
// §4 structure: 4 000 points in the unit cube, B = 32, and 24
// halfspaces from empty to 20 % of the input (a quarter of them take
// the full-scan fallback). The goldens were recorded from the commit
// before the kernel existed (closure-per-record scans, trailing sort):
// per-query reads on a cacheless device pin the count, per-query misses
// under an 8-block LRU pin the order. Answers are checked against brute
// force on the way, ascending.
func TestReportIOGolden(t *testing.T) {
	golden := map[int][]int64{
		0: {23, 18, 78, 18, 138, 23, 50, 37, 76, 71, 53, 138, 138, 66, 66, 65, 77, 138, 101, 73, 79, 77, 138, 138},
		8: {20, 15, 73, 15, 135, 20, 43, 31, 71, 66, 46, 135, 135, 59, 59, 58, 70, 135, 94, 66, 72, 70, 135, 135},
	}
	for _, cache := range []int{0, 8} {
		rng := rand.New(rand.NewSource(7))
		pts := workload.Cube3(rng, 4000)
		dev := eio.NewDevice(32, cache)
		idx := NewPoints3(dev, pts, Options{Seed: 3})
		dev.ResetCounters()
		var out []int
		got := make([]int64, 24)
		for i := range got {
			h := workload.Plane3WithSelectivity(rng, pts, float64(i*i)/float64(23*23)*0.2)
			before := dev.Stats()
			out = idx.HalfspaceAppend(h.A, h.B, h.C, out[:0])
			got[i] = dev.Stats().Sub(before).Reads
			var want []int
			for id, p := range pts {
				if geom.SideOfPlane3(h, p) <= 0 {
					want = append(want, id)
				}
			}
			if !slices.Equal(out, want) {
				t.Fatalf("query %d: got %d ids, brute force %d (or not ascending)", i, len(out), len(want))
			}
		}
		if !slices.Equal(got, golden[cache]) {
			t.Errorf("cache %d blocks: per-query reads\n got %v\nwant %v", cache, got, golden[cache])
		}
	}
}
