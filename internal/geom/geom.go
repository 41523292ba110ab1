// Package geom provides the geometric primitives the paper builds on:
// points, lines, planes and hyperplanes in 2, 3 and d dimensions, the
// duality transform of §2.1 (Lemma 2.1), and orientation / above-below
// predicates evaluated with a floating-point filter backed by exact
// rational arithmetic, so that the combinatorial structures built on top
// never act on an incorrectly signed predicate.
//
// Conventions follow the paper: a non-vertical line in the plane is
// y = a·x + b, a non-vertical plane in space is z = a·x + b·y + c, and a
// halfspace query "x_d <= a_0 + Σ a_i x_i" asks for the points on or below
// the query hyperplane.
package geom

// Point2 is a point in the plane.
type Point2 struct {
	X, Y float64
}

// Line2 is the non-vertical line y = A·x + B.
type Line2 struct {
	A, B float64
}

// Eval returns the line's y value at x.
func (l Line2) Eval(x float64) float64 { return l.A*x + l.B }

// Point3 is a point in space.
type Point3 struct {
	X, Y, Z float64
}

// Plane3 is the non-vertical plane z = A·x + B·y + C.
type Plane3 struct {
	A, B, C float64
}

// Eval returns the plane's z value at (x, y).
func (h Plane3) Eval(x, y float64) float64 { return h.A*x + h.B*y + h.C }

// PointD is a point in R^d, d = len(coords).
type PointD []float64

// HyperplaneD is the non-vertical hyperplane
//
//	x_d = Coef[0]·x_1 + … + Coef[d-2]·x_{d-1} + Coef[d-1]
//
// in R^d, d = len(Coef).
type HyperplaneD struct {
	Coef []float64
}

// --- Duality (§2.1) ---------------------------------------------------
//
// The dual of the point (a_1, …, a_d) is the hyperplane
// x_d = -a_1·x_1 - … - a_{d-1}·x_{d-1} + a_d, and the dual of the
// hyperplane x_d = b_1·x_1 + … + b_{d-1}·x_{d-1} + b_d is the point
// (b_1, …, b_d). Lemma 2.1: the transform preserves the above/below/on
// relation between points and hyperplanes.

// DualOfPoint2 returns the dual line of a point.
func DualOfPoint2(p Point2) Line2 { return Line2{A: -p.X, B: p.Y} }

// DualOfLine2 returns the dual point of a line.
func DualOfLine2(l Line2) Point2 { return Point2{X: l.A, Y: l.B} }

// DualOfPoint3 returns the dual plane of a point.
func DualOfPoint3(p Point3) Plane3 { return Plane3{A: -p.X, B: -p.Y, C: p.Z} }

// DualOfPlane3 returns the dual point of a plane.
func DualOfPlane3(h Plane3) Point3 { return Point3{X: h.A, Y: h.B, Z: h.C} }

// DualOfPointD returns the dual hyperplane of a point.
func DualOfPointD(p PointD) HyperplaneD {
	d := len(p)
	c := make([]float64, d)
	for i := 0; i < d-1; i++ {
		c[i] = -p[i]
	}
	c[d-1] = p[d-1]
	return HyperplaneD{Coef: c}
}

// DualOfHyperplaneD returns the dual point of a hyperplane.
func DualOfHyperplaneD(h HyperplaneD) PointD {
	return append(PointD(nil), h.Coef...)
}

// --- Conversions -------------------------------------------------------

// PointDOf3 converts a Point3 to a PointD.
func PointDOf3(p Point3) PointD { return PointD{p.X, p.Y, p.Z} }

// Lift lifts a planar point to the standard paraboloid-of-revolution plane
// used by the k-nearest-neighbor reduction of Theorem 4.3: the point
// (a, b) maps to the plane z = a² + b² − 2a·x − 2b·y, so vertical-line
// order of the lifted planes at (p, q) equals distance order from (p, q).
func Lift(p Point2) Plane3 {
	return Plane3{A: -2 * p.X, B: -2 * p.Y, C: p.X*p.X + p.Y*p.Y}
}
