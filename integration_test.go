package linconstraint

// Cross-structure integration tests: the paper's different structures
// answer overlapping query classes, so on shared workloads their answers
// must coincide exactly — a 2D halfplane query can be answered by the §3
// structure, the §5 partition tree (d=2), and every baseline; a 3D
// halfspace query by the §4 structure, the §5 tree (d=3) and the
// Theorem 6.1 hybrid. These tests run them side by side.

import (
	"math/rand"
	"sort"
	"testing"

	"linconstraint/internal/baseline"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/halfspace2d"
	"linconstraint/internal/hull3d"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

func TestAllTwoDimensionalStructuresAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, gen := range []struct {
		name string
		pts  []geom.Point2
	}{
		{"uniform", workload.Uniform2(rng, 1500)},
		{"clustered", workload.Clustered2(rng, 1500, 6)},
		{"diagonal", workload.Diagonal2(rng, 1500, 1e-7)},
		{"companies", workload.Companies(rng, 1500)},
	} {
		pts := gen.pts
		ptsD := make([]geom.PointD, len(pts))
		for i, p := range pts {
			ptsD[i] = geom.PointD{p.X, p.Y}
		}
		dev := eio.NewDevice(16, 0)
		optimal := halfspace2d.NewPoints(dev, pts, halfspace2d.Options{Seed: 2})
		tree := partition.New(dev, ptsD, partition.Options{})
		kd := baseline.NewKDTree(dev, pts)
		qt := baseline.NewQuadtree(dev, pts)
		rt := baseline.NewRTree(dev, pts)
		sc := baseline.NewScan(dev, pts)

		for s := 0; s < 25; s++ {
			q := workload.HalfplaneWithSelectivity(rng, pts, rng.Float64()*0.5)
			want := sc.Halfplane(q.A, q.B)
			sort.Ints(want)
			check := func(name string, got []int) {
				t.Helper()
				sort.Ints(got)
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d results, scan says %d", gen.name, name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%s: result %d differs", gen.name, name, i)
					}
				}
			}
			check("optimal2d", optimal.Halfplane(q.A, q.B))
			check("partition", tree.Halfspace(geom.HyperplaneD{Coef: []float64{q.A, q.B}}))
			check("kdtree", kd.Halfplane(q.A, q.B))
			check("quadtree", qt.Halfplane(q.A, q.B))
			check("rtree", rt.Halfplane(q.A, q.B))
		}
	}
}

func TestAllThreeDimensionalStructuresAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	pts := workload.Cube3(rng, 1200)
	ptsD := make([]geom.PointD, len(pts))
	for i, p := range pts {
		ptsD[i] = geom.PointDOf3(p)
	}
	win := hull3d.Window{XMin: -3, XMax: 3, YMin: -3, YMax: 3}
	dev := eio.NewDevice(16, 0)
	idx3 := NewIndex3D(pts, Window{XMin: -3, XMax: 3, YMin: -3, YMax: 3}, Config{BlockSize: 16, Seed: 4})
	tree := partition.New(dev, ptsD, partition.Options{})
	hybrid := partition.NewHybrid(dev, pts, partition.HybridOptions{A: 1.5, Window: win, Copies: 1})

	for s := 0; s < 20; s++ {
		h := workload.Plane3WithSelectivity(rng, pts, rng.Float64()*0.3)
		hd := geom.HyperplaneD{Coef: []float64{h.A, h.B, h.C}}
		want := tree.Halfspace(hd)
		check := func(name string, got []int) {
			t.Helper()
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, partition tree says %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: result %d differs", name, i)
				}
			}
		}
		check("chan3d", idx3.Halfspace(h.A, h.B, h.C))
		check("hybrid", hybrid.Halfspace(h.A, h.B, h.C))
	}
}

// TestStaticAndDynamicAgree bulk-loads a static index and replays the
// same points into a dynamic one; queries must match.
func TestStaticAndDynamicAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	pts := workload.Uniform2(rng, 900)
	lp := make([]Point2, len(pts))
	for i, p := range pts {
		lp[i] = Point2{X: p.X, Y: p.Y}
	}
	static := NewPlanarIndex(lp, Config{BlockSize: 16, Seed: 1})
	dyn := NewDynamicPlanarIndex(Config{BlockSize: 16, Seed: 1})
	for _, p := range lp {
		if err := dyn.Insert(Rec2(p)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 25; s++ {
		q := workload.HalfplaneWithSelectivity(rng, pts, rng.Float64()*0.4)
		a := static.Halfplane(q.A, q.B)
		b := dyn.Halfplane(q.A, q.B)
		if len(a) != len(b) {
			t.Fatalf("static %d vs dynamic %d", len(a), len(b))
		}
	}
}

// TestCacheMonotonicity: adding cache can only reduce the I/Os of an
// identical query sequence, across all public structures.
func TestCacheMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	pts := workload.Uniform2(rng, 2000)
	lp := make([]Point2, len(pts))
	for i, p := range pts {
		lp[i] = Point2{X: p.X, Y: p.Y}
	}
	run := func(cache int) int64 {
		idx := NewPlanarIndex(lp, Config{BlockSize: 32, CacheBlocks: cache, Seed: 6})
		idx.ResetStats()
		r := rand.New(rand.NewSource(9))
		for s := 0; s < 30; s++ {
			idx.Halfplane(r.NormFloat64()*0.3, r.Float64())
		}
		return idx.Stats().IO.IOs()
	}
	cold := run(0)
	warm := run(1 << 16)
	if warm > cold {
		t.Fatalf("cache increased I/Os: %d > %d", warm, cold)
	}
	if warm == cold {
		t.Fatal("large cache had no effect on repeated queries")
	}
}
