package partition

import (
	"math/rand"
	"slices"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/hull3d"
	"linconstraint/internal/workload"
)

// TestHybridReportIOGolden pins the Theorem 6.1 hybrid's block reads the
// way TestReportIOGolden pins the §5 tree's: 6 000 points in the unit
// cube, B = 16, a ∈ {1.5, 2.5}, 16 halfspaces from (nearly) empty to
// 20 % of the input. Per-query reads on a cacheless device pin the
// count, per-query misses under a 64-block LRU pin the order (up to a
// renaming of blocks), and dev.SpaceBlocks() pins the space. The
// goldens were recorded from the hybrid's first build, which had its own
// node type and a second id array per leaf. Answers are checked against
// brute force on the way, ascending.
func TestHybridReportIOGolden(t *testing.T) {
	type key struct {
		a     float64
		cache int
	}
	golden := map[key][]int64{
		{1.5, 0}:  {31, 104, 82, 83, 124, 190, 192, 282, 269, 341, 313, 389, 409, 393, 495, 528},
		{1.5, 64}: {27, 80, 70, 71, 104, 158, 160, 236, 225, 283, 261, 325, 341, 331, 413, 442},
		{2.5, 0}:  {24, 76, 50, 77, 98, 122, 115, 177, 136, 144, 151, 227, 192, 202, 225, 257},
		{2.5, 64}: {20, 64, 33, 68, 89, 113, 111, 162, 128, 127, 140, 217, 181, 187, 206, 240},
	}
	space := map[float64]int64{1.5: 20087, 2.5: 38909}
	win := hull3d.Window{XMin: -4, XMax: 4, YMin: -4, YMax: 4}
	for _, a := range []float64{1.5, 2.5} {
		for _, cache := range []int{0, 64} {
			rng := rand.New(rand.NewSource(11))
			pts := workload.Cube3(rng, 6000)
			dev := eio.NewDevice(16, cache)
			hy := NewHybrid(dev, pts, HybridOptions{A: a, Window: win, Copies: 2, Seed: 3})
			if got := dev.SpaceBlocks(); got != space[a] {
				t.Errorf("a=%v cache %d: SpaceBlocks %d, want %d", a, cache, got, space[a])
			}
			dev.ResetCounters()
			got := make([]int64, 16)
			for i := range got {
				pl := workload.Plane3WithSelectivity(rng, pts, float64(i*i)/float64(15*15)*0.2)
				before := dev.Stats()
				out := hy.Halfspace(pl.A, pl.B, pl.C)
				got[i] = dev.Stats().Sub(before).Reads
				var want []int
				for id, p := range pts {
					if geom.SideOfPlane3(pl, p) <= 0 {
						want = append(want, id)
					}
				}
				if !slices.Equal(out, want) {
					t.Fatalf("a=%v query %d: got %d ids, brute force %d (or not ascending)", a, i, len(out), len(want))
				}
			}
			if k := (key{a, cache}); !slices.Equal(got, golden[k]) {
				t.Errorf("a=%v cache %d blocks: per-query reads\n got %v\nwant %v", a, cache, got, golden[k])
			}
		}
	}
}
