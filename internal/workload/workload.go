// Package workload generates the point sets and query distributions used
// by the experiments: uniform and clustered data, the paper's §1.1
// Companies(PricePerShare, EarningsPerShare) relation, and the §1.2
// adversarial near-diagonal set on which quadtree-style structures
// degrade to Ω(n) I/Os, and degenerate planar sets (lattice, repeated,
// concurrent, collinear) for correctness oracles. Query generators can
// target a requested output selectivity so experiments can separate the
// search term (log_B n or n^(1-1/d)) from the output term t.
package workload

import (
	"math/rand"
	"sort"

	"linconstraint/internal/geom"
)

// Uniform2 returns n points uniform in [0,1]².
func Uniform2(rng *rand.Rand, n int) []geom.Point2 {
	pts := make([]geom.Point2, n)
	for i := range pts {
		pts[i] = geom.Point2{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

// Clustered2 returns n points in k Gaussian clusters inside [0,1]².
func Clustered2(rng *rand.Rand, n, k int) []geom.Point2 {
	centers := Uniform2(rng, k)
	pts := make([]geom.Point2, n)
	for i := range pts {
		c := centers[rng.Intn(k)]
		pts[i] = geom.Point2{X: c.X + rng.NormFloat64()*0.03, Y: c.Y + rng.NormFloat64()*0.03}
	}
	return pts
}

// Diagonal2 returns the §1.2 adversarial set: n points within jitter of
// the diagonal y = x. With jitter = 0 the dual lines are concurrent, so a
// tiny jitter (e.g. 1e-7) keeps general position while preserving the
// adversarial character.
func Diagonal2(rng *rand.Rand, n int, jitter float64) []geom.Point2 {
	pts := make([]geom.Point2, n)
	for i := range pts {
		x := rng.Float64()
		pts[i] = geom.Point2{X: x, Y: x + rng.NormFloat64()*jitter}
	}
	return pts
}

// The degenerate planar sets below are what integer GIS coordinates and
// constraint-database relations look like, and what a construction that
// assumes general position gets wrong. Their coordinates are small
// dyadic rationals, so every coincidence they plant is exact in float64.

// Lattice2 returns n points drawn from the side×side integer grid: many
// points share an x (parallel dual lines) or lie on a common grid line
// (concurrent dual lines), and points repeat once n nears side².
func Lattice2(rng *rand.Rand, n, side int) []geom.Point2 {
	pts := make([]geom.Point2, n)
	for i := range pts {
		pts[i] = geom.Point2{X: float64(rng.Intn(side)), Y: float64(rng.Intn(side))}
	}
	return pts
}

// Duplicated2 returns n points drawn with repetition from distinct
// uniform points, so dual lines coincide.
func Duplicated2(rng *rand.Rand, n, distinct int) []geom.Point2 {
	base := Uniform2(rng, distinct)
	pts := make([]geom.Point2, n)
	for i := range pts {
		pts[i] = base[rng.Intn(distinct)]
	}
	return pts
}

// Concurrent2 returns n points on k random lines, so the dual lines form
// k pencils, each concurrent through one point. k = 1 is the
// all-collinear set.
func Concurrent2(rng *rand.Rand, n, k int) []geom.Point2 {
	type line struct{ m, c float64 }
	ls := make([]line, k)
	for i := range ls {
		ls[i] = line{m: float64(rng.Intn(33)-16) / 8, c: float64(rng.Intn(1<<10)) / (1 << 10)}
	}
	pts := make([]geom.Point2, n)
	for i := range pts {
		l := ls[rng.Intn(k)]
		x := float64(rng.Intn(1<<12)) / (1 << 12)
		pts[i] = geom.Point2{X: x, Y: l.m*x + l.c}
	}
	return pts
}

// Companies returns the §1.1 relation as points
// (EarningsPerShare, PricePerShare): earnings uniform in [0.1, 10],
// price correlated with earnings times a lognormal-ish P/E factor.
func Companies(rng *rand.Rand, n int) []geom.Point2 {
	pts := make([]geom.Point2, n)
	for i := range pts {
		eps := 0.1 + rng.Float64()*9.9
		pe := 5 + rng.Float64()*30 // price/earnings multiple
		pts[i] = geom.Point2{X: eps, Y: eps * pe}
	}
	return pts
}

// Cube3 returns n points uniform in [0,1]³.
func Cube3(rng *rand.Rand, n int) []geom.Point3 {
	pts := make([]geom.Point3, n)
	for i := range pts {
		pts[i] = geom.Point3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	return pts
}

// CubeD returns n points uniform in [0,1]^d.
func CubeD(rng *rand.Rand, n, d int) []geom.PointD {
	pts := make([]geom.PointD, n)
	for i := range pts {
		p := make(geom.PointD, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// Halfplane is a 2D query y <= A·x + B.
type Halfplane struct {
	A, B float64
}

// HalfplaneWithSelectivity returns a halfplane through the data with
// slope drawn from rng whose output is approximately sel·n points: the
// intercept is set to the sel-quantile of y − slope·x.
func HalfplaneWithSelectivity(rng *rand.Rand, pts []geom.Point2, sel float64) Halfplane {
	a := rng.NormFloat64()
	res := make([]float64, len(pts))
	for i, p := range pts {
		res[i] = p.Y - a*p.X
	}
	sort.Float64s(res)
	idx := int(sel * float64(len(pts)))
	if idx >= len(res) {
		idx = len(res) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return Halfplane{A: a, B: res[idx]}
}

// HalfspaceD is a d-dimensional query x_d <= h(x).
type HalfspaceD struct {
	H geom.HyperplaneD
}

// HalfspaceWithSelectivityD is the d-dimensional analog of
// HalfplaneWithSelectivity.
func HalfspaceWithSelectivityD(rng *rand.Rand, pts []geom.PointD, sel float64) HalfspaceD {
	d := len(pts[0])
	coef := make([]float64, d)
	for i := 0; i < d-1; i++ {
		coef[i] = rng.NormFloat64() * 0.5
	}
	res := make([]float64, len(pts))
	for i, p := range pts {
		v := p[d-1]
		for j := 0; j < d-1; j++ {
			v -= coef[j] * p[j]
		}
		res[i] = v
	}
	sort.Float64s(res)
	idx := clampIdx(int(sel*float64(len(pts))), len(res))
	coef[d-1] = res[idx]
	return HalfspaceD{H: geom.HyperplaneD{Coef: coef}}
}

// Plane3WithSelectivity returns a 3D query plane z <= a·x + b·y + c whose
// output is about sel·n points.
func Plane3WithSelectivity(rng *rand.Rand, pts []geom.Point3, sel float64) geom.Plane3 {
	a, b := rng.NormFloat64()*0.5, rng.NormFloat64()*0.5
	res := make([]float64, len(pts))
	for i, p := range pts {
		res[i] = p.Z - a*p.X - b*p.Y
	}
	sort.Float64s(res)
	idx := clampIdx(int(sel*float64(len(pts))), len(res))
	return geom.Plane3{A: a, B: b, C: res[idx]}
}

// DiagonalAdversarialQuery returns the §1.2 killer query for Diagonal2
// data: a halfplane bounded by a slight perturbation of the diagonal,
// with (nearly) empty output.
func DiagonalAdversarialQuery(rng *rand.Rand) Halfplane {
	return Halfplane{A: 1 + rng.NormFloat64()*1e-4, B: -1e-3 - rng.Float64()*1e-3}
}

func clampIdx(i, n int) int {
	if i >= n {
		return n - 1
	}
	if i < 0 {
		return 0
	}
	return i
}
