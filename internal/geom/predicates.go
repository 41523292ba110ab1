package geom

import (
	"fmt"
	"math/big"
)

// The predicates below are evaluated with a floating-point filter: the
// sign is computed in float64 along with a forward error bound, and only
// when the magnitude falls inside the bound do we re-evaluate exactly in
// rational arithmetic (every float64 is an exact rational, so the fallback
// is error-free). This keeps the common case fast while guaranteeing the
// combinatorial layers never see a wrong sign.

const filterEps = 1.1102230246251565e-16 // 2^-53, float64 unit roundoff

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// nonFinite is the message of the panic an exact fallback raises on a
// NaN or infinite input, which has no rational value.
const nonFinite = "geom: exact predicates take finite coordinates and coefficients"

// rat returns x as an exact rational; x must be finite.
func rat(x float64) *big.Rat {
	r := new(big.Rat).SetFloat64(x)
	if r == nil {
		panic(fmt.Sprintf("%s, got %v", nonFinite, x))
	}
	return r
}

// SideOfLine2 reports whether p is above (+1), on (0), or below (-1) the
// line l, i.e. the sign of p.Y − (A·p.X + B). Every coordinate and
// coefficient must be finite: a NaN or infinity reaches the exact
// fallback, which panics.
func SideOfLine2(l Line2, p Point2) int {
	t := l.A * p.X
	det := p.Y - t - l.B
	bound := line2Bound(abs(p.Y), abs(t), abs(l.B))
	if abs(det) > bound {
		return sign(det)
	}
	// Exact: p.Y - (A*p.X + B), in expansion arithmetic (see
	// expansion.go) — allocation-free, which matters because reporting
	// queries whose boundary passes through data points land here once
	// per such point.
	ph, pl := twoProd(l.A, p.X)
	if isFinite(ph) && isFinite(p.Y) && isFinite(l.B) {
		var terms [4]float64
		terms[0], terms[1], terms[2], terms[3] = p.Y, -ph, -pl, -l.B
		return expSign(terms[:])
	}
	e := new(big.Rat).Mul(rat(l.A), rat(p.X))
	e.Add(e, rat(l.B))
	e.Sub(rat(p.Y), e)
	return e.Sign()
}

// SideOfPlane3 reports whether p is above (+1), on (0), or below (-1) the
// plane h, i.e. the sign of p.Z − (A·p.X + B·p.Y + C). Every coordinate
// and coefficient must be finite, as for SideOfLine2.
func SideOfPlane3(h Plane3, p Point3) int {
	tx, ty := h.A*p.X, h.B*p.Y
	det := p.Z - tx - ty - h.C
	bound := filterEps * 6 * (abs(p.Z) + abs(tx) + abs(ty) + abs(h.C))
	if abs(det) > bound {
		return sign(det)
	}
	xh, xl := twoProd(h.A, p.X)
	yh, yl := twoProd(h.B, p.Y)
	if isFinite(xh) && isFinite(yh) && isFinite(p.Z) && isFinite(h.C) {
		var terms [6]float64
		terms[0], terms[1], terms[2] = p.Z, -xh, -xl
		terms[3], terms[4], terms[5] = -yh, -yl, -h.C
		return expSign(terms[:])
	}
	e := new(big.Rat).Mul(rat(h.A), rat(p.X))
	e.Add(e, new(big.Rat).Mul(rat(h.B), rat(p.Y)))
	e.Add(e, rat(h.C))
	e.Sub(rat(p.Z), e)
	return e.Sign()
}

// SideOfHyperplane reports whether p is above (+1), on (0), or below (-1)
// the hyperplane h in R^d. Every coordinate and coefficient must be
// finite, as for SideOfLine2.
func SideOfHyperplane(h HyperplaneD, p PointD) int {
	d := len(h.Coef)
	det := p[d-1] - h.Coef[d-1]
	mag := abs(p[d-1]) + abs(h.Coef[d-1])
	for i := 0; i < d-1; i++ {
		t := h.Coef[i] * p[i]
		det -= t
		mag += abs(t)
	}
	bound := filterEps * 2 * float64(d+1) * mag
	if abs(det) > bound {
		return sign(det)
	}
	if 2*d <= expCap {
		var terms [expCap]float64
		terms[0], terms[1] = p[d-1], -h.Coef[d-1]
		n := 2
		finite := isFinite(p[d-1]) && isFinite(h.Coef[d-1])
		for i := 0; i < d-1; i++ {
			th, tl := twoProd(h.Coef[i], p[i])
			finite = finite && isFinite(th)
			terms[n], terms[n+1] = -th, -tl
			n += 2
		}
		if finite {
			return expSign(terms[:n])
		}
	}
	e := rat(h.Coef[d-1])
	for i := 0; i < d-1; i++ {
		e.Add(e, new(big.Rat).Mul(rat(h.Coef[i]), rat(p[i])))
	}
	e.Sub(rat(p[d-1]), e)
	return e.Sign()
}

// SideOfHyperplaneBound returns a bound that SideOfHyperplane's filter
// bound never exceeds for any point p with |p[i]| <= amax[i]: the same
// expression with |p[i]| replaced by amax[i], evaluated in the same order
// (rounding is monotone, so every partial sum is at least the point's),
// then raised by a 2^-40 relative margin. A det computed in
// SideOfHyperplane's order that exceeds the bound is therefore +1, and
// one below its negation is -1, exactly as SideOfHyperplane would say;
// anything in between — NaN included — must go to SideOfHyperplane. An
// amax holding NaN or ±Inf yields a NaN or +Inf bound, which decides
// nothing.
func SideOfHyperplaneBound(h HyperplaneD, amax []float64) float64 {
	d := len(h.Coef)
	mag := amax[d-1] + abs(h.Coef[d-1])
	for i := 0; i < d-1; i++ {
		mag += abs(h.Coef[i]) * amax[i]
	}
	bound := filterEps * 2 * float64(d+1) * mag
	return bound + bound*0x1p-40
}

// SideOfLine2Bound returns a bound that SideOfLine2's filter bound never
// exceeds for any line l with |l.A| <= amaxA and |l.B| <= amaxB: the
// same expression with |l.A| and |l.B| replaced by the maxima,
// evaluated in the same order (rounding is monotone, so every partial
// sum is at least the line's), then raised by a 2^-40 relative margin.
// A det computed in SideOfLine2's order, q.Y - l.A*q.X - l.B, that
// exceeds the bound is therefore +1, and one below its negation is -1,
// exactly as SideOfLine2 would say; anything in between — NaN included
// — must go to SideOfLine2. A maximum holding NaN or +Inf yields a NaN
// or +Inf bound, which decides nothing.
func SideOfLine2Bound(amaxA, amaxB float64, q Point2) float64 {
	bound := line2Bound(abs(q.Y), amaxA*abs(q.X), amaxB)
	return bound + bound*0x1p-40
}

// line2Bound is SideOfLine2's forward error bound on its det, given
// |p.Y|, |A·p.X| and |B|.
func line2Bound(y, t, b float64) float64 { return filterEps * 4 * (y + t + b) }

// Orient2D returns the sign of the signed area of triangle (a, b, c):
// +1 if counterclockwise, -1 if clockwise, 0 if collinear.
func Orient2D(a, b, c Point2) int {
	l := (b.X - a.X) * (c.Y - a.Y)
	r := (b.Y - a.Y) * (c.X - a.X)
	det := l - r
	bound := filterEps * 8 * (abs(l) + abs(r))
	if abs(det) > bound {
		return sign(det)
	}
	lx := new(big.Rat).Sub(rat(b.X), rat(a.X))
	ly := new(big.Rat).Sub(rat(b.Y), rat(a.Y))
	rx := new(big.Rat).Sub(rat(c.X), rat(a.X))
	ry := new(big.Rat).Sub(rat(c.Y), rat(a.Y))
	e := new(big.Rat).Sub(new(big.Rat).Mul(lx, ry), new(big.Rat).Mul(ly, rx))
	return e.Sign()
}

// CrossX returns the x-coordinate of the intersection of two non-vertical
// lines, and false if they are parallel.
func CrossX(l1, l2 Line2) (float64, bool) {
	if l1.A == l2.A {
		return 0, false
	}
	return (l2.B - l1.B) / (l1.A - l2.A), true
}
