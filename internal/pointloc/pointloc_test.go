package pointloc

import (
	"math"
	"math/rand"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/hull3d"
)

var win = hull3d.Window{XMin: -1, XMax: 1, YMin: -1, YMax: 1}

func randomPlanes(rng *rand.Rand, n int) []geom.Plane3 {
	ps := make([]geom.Plane3, n)
	for i := range ps {
		ps[i] = geom.Plane3{A: rng.NormFloat64(), B: rng.NormFloat64(), C: rng.NormFloat64()}
	}
	return ps
}

// TestSlabMatchesEnvelope: the slab locator always returns a triangle
// whose plane attains the envelope minimum at the query point.
func TestSlabMatchesEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		planes := randomPlanes(rng, 5+rng.Intn(50))
		env := hull3d.Build(planes, win)
		dev := eio.NewDevice(16, 0)
		loc := NewSlab(dev, env)
		for s := 0; s < 300; s++ {
			x, y := rng.Float64()*2-1, rng.Float64()*2-1
			ti, ok := loc.Locate(x, y)
			if !ok {
				t.Fatalf("trial %d: no triangle at (%v,%v)", trial, x, y)
			}
			z := planes[env.Tris[ti].Plane].Eval(x, y)
			if z > env.EvalAt(x, y)+1e-7 {
				t.Fatalf("trial %d: located plane not minimal at (%v,%v)", trial, x, y)
			}
		}
	}
}

func TestSlabAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	planes := randomPlanes(rng, 30)
	env := hull3d.Build(planes, win)
	dev := eio.NewDevice(16, 0)
	slab := NewSlab(dev, env)
	brute := NewBrute(dev, env)
	for s := 0; s < 300; s++ {
		x, y := rng.Float64()*2-1, rng.Float64()*2-1
		ti, ok1 := slab.Locate(x, y)
		tj, ok2 := brute.Locate(x, y)
		if ok1 != ok2 {
			t.Fatalf("disagree on coverage at (%v,%v)", x, y)
		}
		if !ok1 {
			continue
		}
		// Different triangles are fine only if both planes attain the min.
		zi := planes[env.Tris[ti].Plane].Eval(x, y)
		zj := planes[env.Tris[tj].Plane].Eval(x, y)
		if math.Abs(zi-zj) > 1e-7 {
			t.Fatalf("slab and brute disagree at (%v,%v)", x, y)
		}
	}
}

func TestLocateOutsideWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	env := hull3d.Build(randomPlanes(rng, 10), win)
	dev := eio.NewDevice(16, 0)
	loc := NewSlab(dev, env)
	if _, ok := loc.Locate(5, 0); ok {
		t.Fatal("located a point outside the window")
	}
}

// TestLocateIOCost: a locate costs O(log_B s + log2 m) I/Os, far below a
// scan of the triangle set.
func TestLocateIOCost(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	planes := randomPlanes(rng, 400)
	env := hull3d.Build(planes, win)
	dev := eio.NewDevice(64, 0)
	loc := NewSlab(dev, env)
	worst := int64(0)
	for s := 0; s < 100; s++ {
		x, y := rng.Float64()*2-1, rng.Float64()*2-1
		dev.ResetCounters()
		loc.Locate(x, y)
		if io := dev.Stats().IOs(); io > worst {
			worst = io
		}
	}
	// slab directory height plus the slab's B-ary levels; generous budget 40.
	if worst > 40 {
		t.Fatalf("worst locate cost %d I/Os", worst)
	}
}

func TestSingleTriangleEnvelope(t *testing.T) {
	env := hull3d.Build([]geom.Plane3{{A: 0, B: 0, C: 1}}, win)
	dev := eio.NewDevice(8, 0)
	loc := NewSlab(dev, env)
	if _, ok := loc.Locate(0, 0); !ok {
		t.Fatal("failed on trivial envelope")
	}
	if loc.SpaceBlocks() <= 0 {
		t.Fatal("space accounting")
	}
}

func TestYRangeAt(t *testing.T) {
	e := slabEntry{P: [3]geom.Point2{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 0, Y: 2}}}
	lo, hi := yRangeAt(e, 1)
	if lo != 0 || hi != 1 {
		t.Fatalf("yRangeAt = [%v,%v], want [0,1]", lo, hi)
	}
	lo, hi = yRangeAt(e, 0) // vertical edge at x=0
	if lo != 0 || hi != 2 {
		t.Fatalf("yRangeAt vertical = [%v,%v], want [0,2]", lo, hi)
	}
}
