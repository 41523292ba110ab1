package geom

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestLemma21Duality2D checks Lemma 2.1 in the plane: a point p is
// above/on/below a line h iff the dual line p* is above/on/below the dual
// point h*.
func TestLemma21Duality2D(t *testing.T) {
	f := func(px, py, a, b float64) bool {
		if !finite(px, py, a, b) {
			return true
		}
		p := Point2{px, py}
		h := Line2{a, b}
		primal := SideOfLine2(h, p) // p vs h
		// p* is a line, h* is a point; "p* above h*" means the point h*
		// lies BELOW the line p*, i.e. SideOfLine2(p*, h*) == -primal.
		dual := SideOfLine2(DualOfPoint2(p), DualOfLine2(h))
		return primal == -dual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLemma21Duality3D(t *testing.T) {
	f := func(px, py, pz, a, b, c float64) bool {
		if !finite(px, py, pz, a, b, c) {
			return true
		}
		p := Point3{px, py, pz}
		h := Plane3{a, b, c}
		primal := SideOfPlane3(h, p)
		dual := SideOfPlane3(DualOfPoint3(p), DualOfPlane3(h))
		return primal == -dual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLemma21DualityD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for d := 2; d <= 6; d++ {
		for iter := 0; iter < 500; iter++ {
			p := make(PointD, d)
			c := make([]float64, d)
			for i := 0; i < d; i++ {
				p[i] = rng.NormFloat64()
				c[i] = rng.NormFloat64()
			}
			h := HyperplaneD{Coef: c}
			primal := SideOfHyperplane(h, p)
			dual := SideOfHyperplane(DualOfPointD(p), DualOfHyperplaneD(h))
			if primal != -dual {
				t.Fatalf("d=%d: duality broken: primal %d dual %d", d, primal, dual)
			}
		}
	}
}

func TestDualityInvolution(t *testing.T) {
	p := Point2{3, -4}
	if got := DualOfLine2(DualOfPoint2(p)); got != (Point2{-3, -4}) {
		// The transform is not an involution on points (sign of x flips);
		// document the exact behaviour so regressions are caught.
		t.Fatalf("dual-of-dual = %v", got)
	}
	l := Line2{2, 5}
	if got := DualOfPoint2(DualOfLine2(l)); got != (Line2{-2, 5}) {
		t.Fatalf("dual-of-dual line = %v", got)
	}
}

func TestSideOfLine2Exactness(t *testing.T) {
	// A point constructed to be exactly on the line must report 0 even
	// when the float path is near the filter boundary.
	l := Line2{A: 1.0 / 3, B: 0.1}
	x := 7.25 // power-of-two-friendly x keeps A*x inexact, exercising the filter
	p := Point2{X: x, Y: l.A*x + l.B}
	got := SideOfLine2(l, p)
	// The constructed Y is the rounded float of the true value; the exact
	// predicate must agree with the sign of the rounding error, never
	// crash, and be one of {-1, 0, 1}.
	if got < -1 || got > 1 {
		t.Fatalf("invalid sign %d", got)
	}
	// Exactly representable case: integer coefficients.
	l2 := Line2{A: 2, B: 3}
	if SideOfLine2(l2, Point2{5, 13}) != 0 {
		t.Fatal("exact on-line point not detected")
	}
	if SideOfLine2(l2, Point2{5, 13.0000001}) != 1 {
		t.Fatal("above not detected")
	}
	if SideOfLine2(l2, Point2{5, 12.9999999}) != -1 {
		t.Fatal("below not detected")
	}
}

// edgeFloat draws from the values a float filter gets wrong first: ±0,
// subnormals, ±1e-300, huge and overflowing magnitudes, ordinary
// normals, and (when nonFinite) NaN and ±Inf.
func edgeFloat(rng *rand.Rand, nonFinite bool) float64 {
	neg := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(9) {
	case 0:
		return math.Copysign(0, neg)
	case 1:
		return neg * 5e-324 * float64(1+rng.Intn(1<<20))
	case 2:
		return neg * 1e-300 * rng.Float64()
	case 3:
		return neg * math.MaxFloat64 * rng.Float64()
	case 4:
		return neg * 1e150 * rng.Float64()
	case 5:
		if nonFinite {
			if rng.Intn(2) == 0 {
				return math.NaN()
			}
			return math.Inf(int(neg))
		}
		fallthrough
	default:
		return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
	}
}

// TestSideOfLine2BoundCoversEveryLine: on random blocks of lines with
// ±0, subnormal, huge and non-finite coefficients, the block bound over
// the lines' max |A| and max |B| is at least SideOfLine2's own bound
// for every line of the block and every q, and every sign it decides is
// SideOfLine2's. A non-finite maximum gives a NaN or +Inf bound, which
// decides nothing.
func TestSideOfLine2BoundCoversEveryLine(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 20000; trial++ {
		lines := make([]Line2, 1+rng.Intn(32))
		nonFinite := trial%4 == 0
		var amaxA, amaxB float64
		for i := range lines {
			lines[i] = Line2{A: edgeFloat(rng, nonFinite), B: edgeFloat(rng, nonFinite)}
			if a := math.Abs(lines[i].A); a > amaxA || a != a {
				amaxA = a
			}
			if b := math.Abs(lines[i].B); b > amaxB || b != b {
				amaxB = b
			}
		}
		for k := 0; k < 8; k++ {
			q := Point2{X: edgeFloat(rng, k == 0), Y: edgeFloat(rng, k == 0)}
			if k == 1 { // q exactly or nearly on a line of the block
				l := lines[rng.Intn(len(lines))]
				q.Y = l.A*q.X + l.B
			}
			h := SideOfLine2Bound(amaxA, amaxB, q)
			if (!isFinite(amaxA) || !isFinite(amaxB)) && !math.IsNaN(h) && !math.IsInf(h, 1) {
				t.Fatalf("max |A| %v, max |B| %v, q %v: bound %v, want NaN or +Inf", amaxA, amaxB, q, h)
			}
			if math.IsNaN(h) || math.IsInf(h, 1) {
				continue // decides nothing
			}
			for _, l := range lines {
				tt := l.A * q.X
				own := line2Bound(math.Abs(q.Y), math.Abs(tt), math.Abs(l.B))
				if !(h >= own) {
					t.Fatalf("line %v, q %v: block bound %v below the line's own %v", l, q, h, own)
				}
				det := q.Y - tt - l.B
				if det > h && SideOfLine2(l, q) != 1 || det < -h && SideOfLine2(l, q) != -1 {
					t.Fatalf("line %v, q %v: det %v decided against bound %v, SideOfLine2 says %d", l, q, det, h, SideOfLine2(l, q))
				}
			}
		}
	}
}

func TestOrient2D(t *testing.T) {
	a, b := Point2{0, 0}, Point2{1, 0}
	if Orient2D(a, b, Point2{0, 1}) != 1 {
		t.Fatal("ccw not detected")
	}
	if Orient2D(a, b, Point2{0, -1}) != -1 {
		t.Fatal("cw not detected")
	}
	if Orient2D(a, b, Point2{2, 0}) != 0 {
		t.Fatal("collinear not detected")
	}
	// Near-degenerate: points almost collinear; exact path must decide.
	c := Point2{0.5, 1e-320}
	if Orient2D(a, b, c) != 1 {
		t.Fatal("tiny positive area missed by exact fallback")
	}
}

func TestCrossX(t *testing.T) {
	x, ok := CrossX(Line2{1, 0}, Line2{-1, 4})
	if !ok || x != 2 {
		t.Fatalf("CrossX = %v, %v", x, ok)
	}
	if _, ok := CrossX(Line2{1, 0}, Line2{1, 5}); ok {
		t.Fatal("parallel lines reported as crossing")
	}
}

// TestBoxRegionSide cross-checks the linear-extreme classification against
// exhaustive corner evaluation.
func TestBoxRegionSide(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for d := 2; d <= 4; d++ {
		for iter := 0; iter < 400; iter++ {
			b := randomBox(rng, d)
			c := make([]float64, d)
			for i := range c {
				c[i] = rng.NormFloat64()
			}
			h := HyperplaneD{Coef: c}
			got := b.RegionSide(h)
			allBelow, allAbove := true, true
			forEachCorner(b, func(p PointD) {
				if SideOfHyperplane(h, p) > 0 {
					allBelow = false
				} else {
					allAbove = false
				}
			})
			want := 0
			if allBelow {
				want = -1
			} else if allAbove {
				want = 1
			}
			// RegionSide +1 requires strictly above; corner check with >0
			// matches "strictly above at every corner" only if no corner
			// is on the plane, which holds almost surely here.
			if got != want {
				t.Fatalf("d=%d RegionSide=%d, corners say %d (box %+v)", d, got, want, b)
			}
		}
	}
}

func TestSimplexContainsAndRegionSide(t *testing.T) {
	// The triangle below y <= x+1, above y >= -x-1... encoded as two
	// constraints plus x <= 0.9 via a steep plane is awkward; use two
	// halfplanes and verify agreement between Contains and RegionSide on
	// random boxes and corner enumeration.
	s := Simplex{
		Planes: []HyperplaneD{{Coef: []float64{1, 1}}, {Coef: []float64{-1, -1}}},
		Below:  []bool{true, false},
	}
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		b := randomBox(rng, 2)
		got := s.RegionSide(b)
		allIn, anyIn := true, false
		forEachCorner(b, func(p PointD) {
			if s.Contains(p) {
				anyIn = true
			} else {
				allIn = false
			}
		})
		if got == -1 && !allIn {
			t.Fatalf("RegionSide says inside but a corner is out: %+v", b)
		}
		if got == 1 && anyIn {
			t.Fatalf("RegionSide says outside but a corner is in: %+v", b)
		}
	}
}

func TestLiftDistanceOrder(t *testing.T) {
	// Theorem 4.3's reduction: for query q, plane order along the vertical
	// line at q equals squared-distance order.
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		p1 := Point2{rng.NormFloat64(), rng.NormFloat64()}
		p2 := Point2{rng.NormFloat64(), rng.NormFloat64()}
		q := Point2{rng.NormFloat64(), rng.NormFloat64()}
		d1 := (p1.X-q.X)*(p1.X-q.X) + (p1.Y-q.Y)*(p1.Y-q.Y)
		d2 := (p2.X-q.X)*(p2.X-q.X) + (p2.Y-q.Y)*(p2.Y-q.Y)
		z1 := Lift(p1).Eval(q.X, q.Y)
		z2 := Lift(p2).Eval(q.X, q.Y)
		// z_i = d_i − |q|², so ordering matches.
		if (d1 < d2) != (z1 < z2) && d1 != d2 {
			t.Fatalf("lifting map broke distance order")
		}
	}
}

func TestHyperplaneEvalAndConversions(t *testing.T) {
	h := HyperplaneD{Coef: []float64{2, -1, 3}}
	if len(h.Coef) != 3 {
		t.Fatal("Dim")
	}
	// x_3 = 2·1 − 1·1 + 3 = 4 above (1, 1): that point is on h.
	if got := SideOfHyperplane(h, PointD{1, 1, 4}); got != 0 {
		t.Fatalf("(1, 1, 4) on side %d of h, want 0", got)
	}
	if len(PointDOf3(Point3{1, 2, 3})) != 3 {
		t.Fatal("point conversion")
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []PointD{{1, 5}, {-2, 3}, {4, -1}}
	b := BoundingBox(pts)
	if b.Min[0] != -2 || b.Min[1] != -1 || b.Max[0] != 4 || b.Max[1] != 5 {
		t.Fatalf("bbox %+v", b)
	}
	for _, p := range pts {
		if p[0] < b.Min[0] || p[0] > b.Max[0] || p[1] < b.Min[1] || p[1] > b.Max[1] {
			t.Fatalf("bbox excludes %v", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty bounding box must panic")
		}
	}()
	BoundingBox(nil)
}

// --- helpers ---

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
			return false
		}
	}
	return true
}

func randomBox(rng *rand.Rand, d int) Box {
	mn := make(PointD, d)
	mx := make(PointD, d)
	for i := 0; i < d; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		if a > b {
			a, b = b, a
		}
		mn[i], mx[i] = a, b
	}
	return Box{Min: mn, Max: mx}
}

func forEachCorner(b Box, fn func(PointD)) {
	d := len(b.Min)
	for mask := 0; mask < 1<<d; mask++ {
		p := make(PointD, d)
		for i := 0; i < d; i++ {
			if mask&(1<<i) != 0 {
				p[i] = b.Max[i]
			} else {
				p[i] = b.Min[i]
			}
		}
		fn(p)
	}
}

// TestPredicatesRejectNonFinite: a NaN or infinity in a coefficient or
// in a coordinate makes SideOfLine2, SideOfPlane3 and SideOfHyperplane
// panic with the message that names their finiteness precondition, not
// with a nil dereference inside math/big.
func TestPredicatesRejectNonFinite(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		cases := []struct {
			name string
			call func() int
		}{
			{"SideOfLine2 coefficient", func() int { return SideOfLine2(Line2{A: bad, B: 0.5}, Point2{X: 0.5, Y: 0.5}) }},
			{"SideOfLine2 coordinate", func() int { return SideOfLine2(Line2{A: 0.5, B: 0.5}, Point2{X: 0.5, Y: bad}) }},
			{"SideOfPlane3 coefficient", func() int { return SideOfPlane3(Plane3{A: 0.5, B: bad, C: 0.5}, Point3{X: 0.5, Y: 0.5, Z: 0.5}) }},
			{"SideOfPlane3 coordinate", func() int { return SideOfPlane3(Plane3{A: 0.5, B: 0.5, C: 0.5}, Point3{X: bad, Y: 0.5, Z: 0.5}) }},
			{"SideOfHyperplane coefficient", func() int {
				return SideOfHyperplane(HyperplaneD{Coef: []float64{0.5, 0.5, bad}}, PointD{0.5, 0.5, 0.5})
			}},
			{"SideOfHyperplane coordinate", func() int {
				return SideOfHyperplane(HyperplaneD{Coef: []float64{0.5, 0.5, 0.5}}, PointD{0.5, bad, 0.5})
			}},
		}
		for _, c := range cases {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				c.call()
				return ""
			}()
			if !strings.HasPrefix(msg, nonFinite) {
				t.Errorf("%s = %v: panic %q, want one starting %q", c.name, bad, msg, nonFinite)
			}
		}
	}
}
