package partition

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
// §5 tree: 6 000 points in the unit cube, B = 32, 16 halfspaces from
// empty to 20 % of the input and 8 slabs between two of them (the
// simplex path). The goldens were recorded from the commit before the
// kernel existed (closure-per-record leaf scans, trailing sort):
// per-query reads on a cacheless device pin the count, per-query misses
// under a 64-block LRU pin the order. Answers are checked against brute
// force on the way, ascending.
func TestReportIOGolden(t *testing.T) {
	golden := map[int][]int64{
		0:  {18, 17, 22, 28, 33, 44, 44, 50, 68, 74, 80, 98, 103, 112, 126, 130, 12, 16, 27, 32, 40, 38, 48, 68},
		64: {18, 9, 4, 9, 15, 13, 33, 27, 57, 74, 80, 89, 103, 112, 126, 130, 8, 8, 17, 8, 9, 8, 2, 60},
	}
	for _, cache := range []int{0, 64} {
		rng := rand.New(rand.NewSource(7))
		pts := workload.CubeD(rng, 6000, 3)
		dev := eio.NewDevice(32, cache)
		tr := New(dev, pts, Options{})
		dev.ResetCounters()
		var out []int
		got := make([]int64, 24)
		for i := range got {
			hi := workload.HalfspaceWithSelectivityD(rng, pts, float64((i%16)*(i%16))/float64(15*15)*0.2).H
			sx := geom.Simplex{Planes: []geom.HyperplaneD{hi}, Below: []bool{true}}
			before := dev.Stats()
			if i < 16 {
				out = tr.HalfspaceAppend(hi, out[:0])
			} else {
				lo := geom.HyperplaneD{Coef: slices.Clone(hi.Coef)}
				lo.Coef[2] -= 0.05
				sx.Planes, sx.Below = append(sx.Planes, lo), append(sx.Below, false)
				out = tr.SimplexAppend(sx, out[:0])
			}
			got[i] = dev.Stats().Sub(before).Reads
			var want []int
			for id, p := range pts {
				if sx.Contains(p) {
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
