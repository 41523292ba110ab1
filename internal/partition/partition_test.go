package partition

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/hull3d"
)

func randomPointsD(rng *rand.Rand, n, d int) []geom.PointD {
	pts := make([]geom.PointD, n)
	for i := range pts {
		p := make(geom.PointD, d)
		for j := range p {
			p[j] = rng.Float64()*2 - 1
		}
		pts[i] = p
	}
	return pts
}

func randomHyperplane(rng *rand.Rand, d int) geom.HyperplaneD {
	c := make([]float64, d)
	for i := range c {
		c[i] = rng.NormFloat64() * 0.5
	}
	return geom.HyperplaneD{Coef: c}
}

func bruteHalfspace(pts []geom.PointD, h geom.HyperplaneD) []int {
	var out []int
	for i, p := range pts {
		if geom.SideOfHyperplane(h, p) <= 0 {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHalfspaceMatchesBruteForce across dimensions 2, 3, 4 (Theorem 5.2).
func TestHalfspaceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := 2; d <= 4; d++ {
		for trial := 0; trial < 3; trial++ {
			n := 300 + rng.Intn(1200)
			pts := randomPointsD(rng, n, d)
			dev := eio.NewDevice(16, 0)
			tr := New(dev, pts, Options{})
			for s := 0; s < 40; s++ {
				h := randomHyperplane(rng, d)
				got := tr.Halfspace(h)
				want := bruteHalfspace(pts, h)
				if !equalInts(got, want) {
					t.Fatalf("d=%d trial %d: got %d points, want %d", d, trial, len(got), len(want))
				}
			}
		}
	}
}

// TestSimplexMatchesBruteForce checks §5 Remark i.
func TestSimplexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for d := 2; d <= 3; d++ {
		n := 800
		pts := randomPointsD(rng, n, d)
		dev := eio.NewDevice(16, 0)
		tr := New(dev, pts, Options{})
		for s := 0; s < 40; s++ {
			// d+1 random halfspaces form the simplex (possibly empty).
			var sx geom.Simplex
			for i := 0; i <= d; i++ {
				sx.Planes = append(sx.Planes, randomHyperplane(rng, d))
				sx.Below = append(sx.Below, rng.Intn(2) == 0)
			}
			got := tr.Simplex(sx)
			var want []int
			for i, p := range pts {
				if sx.Contains(p) {
					want = append(want, i)
				}
			}
			if !equalInts(got, want) {
				t.Fatalf("d=%d: simplex got %d, want %d", d, len(got), len(want))
			}
		}
	}
}

// TestTheorem51Crossing verifies the crossing bound our kd-partition
// supplies in place of Theorem 5.1: a hyperplane crosses at most
// alpha·r^(1-1/d) of the r root cells.
func TestTheorem51Crossing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for d := 2; d <= 4; d++ {
		pts := randomPointsD(rng, 1<<13, d)
		dev := eio.NewDevice(64, 0)
		tr := New(dev, pts, Options{})
		r := len(tr.RootCells())
		if r < 4 {
			t.Fatalf("d=%d: degenerate root degree %d", d, r)
		}
		bound := 6 * math.Pow(float64(r), 1-1/float64(d))
		for s := 0; s < 50; s++ {
			h := randomHyperplane(rng, d)
			if c := tr.CrossingNumber(h); float64(c) > bound {
				t.Fatalf("d=%d: crossing number %d exceeds %g (r=%d)", d, c, bound, r)
			}
		}
	}
}

// TestSpaceLinear: the §5 tree uses O(n) blocks.
func TestSpaceLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := 32
	n := 1 << 14
	pts := randomPointsD(rng, n, 3)
	dev := eio.NewDevice(b, 0)
	New(dev, pts, Options{})
	if dev.SpaceBlocks() > int64(6*n/b) {
		t.Fatalf("space %d blocks, budget %d", dev.SpaceBlocks(), 6*n/b)
	}
}

// TestQuerySublinear: query I/Os grow like n^(1-1/d), far below a scan.
func TestQuerySublinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := 32
	n := 1 << 14
	pts := randomPointsD(rng, n, 2)
	dev := eio.NewDevice(b, 0)
	tr := New(dev, pts, Options{})
	var worst int64
	for s := 0; s < 30; s++ {
		h := randomHyperplane(rng, 2)
		dev.ResetCounters()
		res := tr.Halfspace(h)
		extra := dev.Stats().IOs() - int64(len(res)/b)
		if extra > worst {
			worst = extra
		}
	}
	// sqrt(n/b) ~ 23; allow a fat constant for the recursion overhead.
	budget := int64(40 * math.Sqrt(float64(n/b)))
	if worst > budget {
		t.Fatalf("worst non-output query cost %d I/Os, budget %d", worst, budget)
	}
}

func TestEmptyAndTiny(t *testing.T) {
	dev := eio.NewDevice(8, 0)
	tr := New(dev, nil, Options{})
	if got := tr.Halfspace(geom.HyperplaneD{Coef: []float64{1, 0}}); len(got) != 0 {
		t.Fatal("empty tree")
	}
	pts := []geom.PointD{{0, 0}, {1, 1}}
	tr = New(dev, pts, Options{})
	if got := tr.Halfspace(geom.HyperplaneD{Coef: []float64{0, 0.5}}); len(got) != 1 || got[0] != 0 {
		t.Fatalf("tiny tree: %v", got)
	}
	if tr.Len() != 2 || tr.Dim() != 2 {
		t.Fatal("accessors")
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geom.PointD, 300)
	for i := range pts {
		pts[i] = geom.PointD{1, 1}
	}
	dev := eio.NewDevice(8, 0)
	tr := New(dev, pts, Options{})
	if got := tr.Halfspace(geom.HyperplaneD{Coef: []float64{0, 2}}); len(got) != 300 {
		t.Fatalf("duplicates: %d reported", len(got))
	}
	if got := tr.Halfspace(geom.HyperplaneD{Coef: []float64{0, 0}}); len(got) != 0 {
		t.Fatalf("duplicates above plane: %d reported", len(got))
	}
}

// TestTreeShallowQueryCheap: genuinely shallow queries (small output)
// on the §5 tree should cost near-polylog I/Os, much less than its
// n^(2/3) worst case.
func TestTreeShallowQueryCheap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 1 << 13
	pts := randomPointsD(rng, n, 3)
	dev := eio.NewDevice(32, 0)
	tr := New(dev, pts, Options{})
	var total int64
	qs := 30
	for s := 0; s < qs; s++ {
		// Plane near the bottom of the cube: few points below.
		h := geom.HyperplaneD{Coef: []float64{rng.NormFloat64() * 0.05, rng.NormFloat64() * 0.05, -0.95}}
		dev.ResetCounters()
		tr.Halfspace(h)
		total += dev.Stats().IOs()
	}
	avg := float64(total) / float64(qs)
	if avg > 220 {
		t.Fatalf("avg shallow query cost %v I/Os", avg)
	}
}

// TestHybridMatchesBruteForce: Theorem 6.1 structure correctness.
func TestHybridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 1500
	pts := make([]geom.Point3, n)
	for i := range pts {
		pts[i] = geom.Point3{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1, Z: rng.Float64()*2 - 1}
	}
	dev := eio.NewDevice(8, 0)
	tr := NewHybrid(dev, pts, HybridOptions{A: 1.5, Window: hull3d.Window{XMin: -4, XMax: 4, YMin: -4, YMax: 4}})
	for s := 0; s < 25; s++ {
		a, b, c := rng.NormFloat64()*0.5, rng.NormFloat64()*0.5, rng.NormFloat64()*0.5
		got := tr.Halfspace(a, b, c)
		var want []int
		for i, p := range pts {
			if geom.SideOfPlane3(geom.Plane3{A: a, B: b, C: c}, p) <= 0 {
				want = append(want, i)
			}
		}
		if !equalInts(got, want) {
			t.Fatalf("hybrid: got %d, want %d", len(got), len(want))
		}
	}
	if tr.Len() != n {
		t.Fatal("Len")
	}
	if got := NewHybrid(dev, nil, HybridOptions{}).Halfspace(0, 0, 0); len(got) != 0 {
		t.Fatal("empty hybrid")
	}
}

func TestNthElement(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		recs := make([]ptRec, n)
		for i := range recs {
			recs[i] = ptRec{P: geom.PointD{rng.Float64()}}
		}
		k := rng.Intn(n)
		nthElement(recs, k, 0)
		vals := make([]float64, n)
		for i, r := range recs {
			vals[i] = r.P[0]
		}
		kth := vals[k]
		sort.Float64s(vals)
		if kth != vals[k] {
			t.Fatalf("nthElement: got %v at %d, want %v", kth, k, vals[k])
		}
	}
}
