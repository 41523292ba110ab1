package workload

import (
	"math"
	"math/rand"
	"testing"

	"linconstraint/internal/geom"
)

func TestGeneratorsSizesAndRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Uniform2(rng, 100); len(got) != 100 {
		t.Fatal("Uniform2 size")
	}
	for _, p := range Uniform2(rng, 50) {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatal("Uniform2 range")
		}
	}
	if got := Clustered2(rng, 200, 5); len(got) != 200 {
		t.Fatal("Clustered2 size")
	}
	if got := Cube3(rng, 70); len(got) != 70 {
		t.Fatal("Cube3 size")
	}
	pd := CubeD(rng, 30, 5)
	if len(pd) != 30 || len(pd[0]) != 5 {
		t.Fatal("CubeD shape")
	}
}

func TestDiagonal2IsNearDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range Diagonal2(rng, 500, 1e-7) {
		if math.Abs(p.Y-p.X) > 1e-5 {
			t.Fatalf("point %v too far from diagonal", p)
		}
	}
}

func TestCompaniesPERange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, p := range Companies(rng, 500) {
		pe := p.Y / p.X
		if pe < 5-1e-9 || pe > 35+1e-9 {
			t.Fatalf("P/E %v out of the generator's range", pe)
		}
	}
}

func TestHalfplaneSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := Uniform2(rng, 4000)
	for _, sel := range []float64{0.01, 0.1, 0.5} {
		q := HalfplaneWithSelectivity(rng, pts, sel)
		cnt := 0
		for _, p := range pts {
			if geom.SideOfLine2(geom.Line2{A: q.A, B: q.B}, p) <= 0 {
				cnt++
			}
		}
		got := float64(cnt) / float64(len(pts))
		if math.Abs(got-sel) > 0.02+sel*0.2 {
			t.Fatalf("sel %v: achieved %v", sel, got)
		}
	}
}

func TestHalfspaceSelectivityD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 2; d <= 4; d++ {
		pts := CubeD(rng, 3000, d)
		q := HalfspaceWithSelectivityD(rng, pts, 0.1)
		cnt := 0
		for _, p := range pts {
			if geom.SideOfHyperplane(q.H, p) <= 0 {
				cnt++
			}
		}
		got := float64(cnt) / float64(len(pts))
		if math.Abs(got-0.1) > 0.05 {
			t.Fatalf("d=%d: achieved selectivity %v", d, got)
		}
	}
}

func TestPlane3Selectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := Cube3(rng, 3000)
	h := Plane3WithSelectivity(rng, pts, 0.05)
	cnt := 0
	for _, p := range pts {
		if geom.SideOfPlane3(h, p) >= 0 == false { // p at or below h
			cnt++
		}
	}
	_ = cnt // counted below properly
	cnt = 0
	for _, p := range pts {
		if geom.SideOfPlane3(h, p) <= 0 {
			cnt++
		}
	}
	got := float64(cnt) / float64(len(pts))
	if math.Abs(got-0.05) > 0.03 {
		t.Fatalf("achieved selectivity %v", got)
	}
}

func TestDiagonalAdversarialQueryEmptyOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := Diagonal2(rng, 2000, 1e-7)
	q := DiagonalAdversarialQuery(rng)
	cnt := 0
	for _, p := range pts {
		if geom.SideOfLine2(geom.Line2{A: q.A, B: q.B}, p) <= 0 {
			cnt++
		}
	}
	if cnt > len(pts)/100 {
		t.Fatalf("adversarial query output %d not near-empty", cnt)
	}
}

// TestDegenerateGeneratorsAreExact checks that the degeneracies the
// planar generators plant survive float64: Concurrent2's points lie
// exactly on their lines (so the dual lines are exactly concurrent), and
// the lattice and duplicated sets really repeat points.
func TestDegenerateGeneratorsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := Concurrent2(rng, 300, 1)
	for _, p := range pts[2:] {
		if geom.Orient2D(pts[0], pts[1], p) != 0 {
			t.Fatalf("Concurrent2(k=1): %v is off the line through %v and %v", p, pts[0], pts[1])
		}
	}
	distinct := func(pts []geom.Point2) int {
		seen := map[geom.Point2]bool{}
		for _, p := range pts {
			seen[p] = true
		}
		return len(seen)
	}
	if d := distinct(Lattice2(rng, 400, 16)); d >= 400 || d > 16*16 {
		t.Fatalf("Lattice2 gave %d distinct points of 400 on a 16×16 grid", d)
	}
	if d := distinct(Duplicated2(rng, 400, 50)); d > 50 {
		t.Fatalf("Duplicated2 gave %d distinct points, want ≤ 50", d)
	}
}

func TestClampIdx(t *testing.T) {
	if clampIdx(-1, 5) != 0 || clampIdx(7, 5) != 4 || clampIdx(3, 5) != 3 {
		t.Fatal("clampIdx")
	}
}
