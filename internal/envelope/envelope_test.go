package envelope

import (
	"math"
	"math/rand"
	"testing"

	"linconstraint/internal/geom"
)

func randomLines(rng *rand.Rand, n int) []geom.Line2 {
	ls := make([]geom.Line2, n)
	for i := range ls {
		ls[i] = geom.Line2{A: rng.NormFloat64(), B: rng.NormFloat64()}
	}
	return ls
}

// bruteEval returns the extreme active line at x.
func bruteEval(d *Dynamic, x float64) (int, float64, bool) {
	best := -1
	var bestV float64
	for id, a := range d.active {
		if !a {
			continue
		}
		v := d.lines[id].Eval(x)
		if best < 0 || (d.side == Lower && v < bestV) || (d.side == Upper && v > bestV) {
			best, bestV = id, v
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestV, true
}

// bruteFirstCrossing finds the earliest crossing of l with any active
// line right of x0.
func bruteFirstCrossing(d *Dynamic, l geom.Line2, x0 float64) (float64, bool) {
	best := math.Inf(1)
	found := false
	for id, a := range d.active {
		if !a {
			continue
		}
		if x, ok := geom.CrossX(d.lines[id], l); ok && x > x0 && x < best {
			best = x
			found = true
		}
	}
	return best, found
}

func TestEvalMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, side := range []Side{Lower, Upper} {
		lines := randomLines(rng, 300)
		d := NewDynamic(NewUniverse(lines), side)
		// Random activation pattern.
		for id := range lines {
			if rng.Intn(3) > 0 {
				d.Activate(id)
			}
		}
		for s := 0; s < 300; s++ {
			x := rng.NormFloat64() * 2
			id, v, ok := d.EvalAt(x)
			wid, wv, wok := bruteEval(d, x)
			if ok != wok {
				t.Fatalf("side %v: coverage mismatch at %v", side, x)
			}
			if !ok {
				continue
			}
			if v != wv && id != wid {
				t.Fatalf("side %v: EvalAt(%v) = line %d v=%v, want line %d v=%v", side, x, id, v, wid, wv)
			}
		}
	}
}

func TestDynamicOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lines := randomLines(rng, 200)
	d := NewDynamic(NewUniverse(lines), Lower)
	model := make(map[int]bool)
	for op := 0; op < 2000; op++ {
		id := rng.Intn(200)
		if rng.Intn(2) == 0 {
			d.Activate(id)
			model[id] = true
		} else {
			d.Deactivate(id)
			delete(model, id)
		}
		if d.Len() != len(model) {
			t.Fatalf("op %d: Len %d, want %d", op, d.Len(), len(model))
		}
		if op%100 == 0 {
			x := rng.NormFloat64()
			_, v, ok := d.EvalAt(x)
			_, wv, wok := bruteEval(d, x)
			if ok != wok || (ok && v != wv) {
				t.Fatalf("op %d: eval mismatch", op)
			}
		}
	}
	// Idempotence.
	d.Activate(5)
	n := d.Len()
	d.Activate(5)
	if d.Len() != n {
		t.Fatal("double activate")
	}
	d.Deactivate(5)
	d.Deactivate(5)
	if d.Len() != n-1 {
		t.Fatal("double deactivate")
	}
}

// TestFirstCrossingFromBelow exercises the walk invariant: the query
// line passes strictly below every active line at x0.
func TestFirstCrossingFromBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		lines := randomLines(rng, 100)
		d := NewDynamic(NewUniverse(lines), Lower)
		// Query line and starting point.
		l := geom.Line2{A: rng.NormFloat64(), B: rng.NormFloat64()}
		x0 := rng.NormFloat64()
		// Activate only lines strictly above l at x0.
		for id, cand := range lines {
			if cand.Eval(x0) > l.Eval(x0) {
				d.Activate(id)
			}
		}
		if d.Len() == 0 {
			continue
		}
		gx, _, gok := d.FirstCrossing(l, x0)
		wx, wok := bruteFirstCrossing(d, l, x0)
		if gok != wok {
			t.Fatalf("trial %d: found=%v want %v", trial, gok, wok)
		}
		if gok && math.Abs(gx-wx) > 1e-9*(1+math.Abs(wx)) {
			t.Fatalf("trial %d: crossing at %v, want %v", trial, gx, wx)
		}
	}
}

// TestFirstCrossingFromAbove is the symmetric Upper-side case.
func TestFirstCrossingFromAbove(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		lines := randomLines(rng, 100)
		d := NewDynamic(NewUniverse(lines), Upper)
		l := geom.Line2{A: rng.NormFloat64(), B: rng.NormFloat64()}
		x0 := rng.NormFloat64()
		for id, cand := range lines {
			if cand.Eval(x0) < l.Eval(x0) {
				d.Activate(id)
			}
		}
		if d.Len() == 0 {
			continue
		}
		gx, _, gok := d.FirstCrossing(l, x0)
		wx, wok := bruteFirstCrossing(d, l, x0)
		if gok != wok {
			t.Fatalf("trial %d: found=%v want %v", trial, gok, wok)
		}
		if gok && math.Abs(gx-wx) > 1e-9*(1+math.Abs(wx)) {
			t.Fatalf("trial %d: crossing at %v, want %v", trial, gx, wx)
		}
	}
}

func TestParallelLines(t *testing.T) {
	lines := []geom.Line2{{A: 1, B: 0}, {A: 1, B: -2}, {A: 1, B: 3}}
	d := NewDynamic(NewUniverse(lines), Lower)
	for i := range lines {
		d.Activate(i)
	}
	id, v, ok := d.EvalAt(0)
	if !ok || id != 1 || v != -2 {
		t.Fatalf("parallel envelope: id=%d v=%v", id, v)
	}
	// A parallel query line never crosses.
	if _, _, ok := d.FirstCrossing(geom.Line2{A: 1, B: -5}, 0); ok {
		t.Fatal("crossing with parallel family reported")
	}
}

func TestEmpty(t *testing.T) {
	d := NewDynamic(NewUniverse(randomLines(rand.New(rand.NewSource(5)), 10)), Lower)
	if _, _, ok := d.EvalAt(0); ok {
		t.Fatal("EvalAt on empty")
	}
	if _, _, ok := d.FirstCrossing(geom.Line2{A: 1}, 0); ok {
		t.Fatal("FirstCrossing on empty")
	}
}

// TestLoadMatchesActivate: bulk-loading a set answers every EvalAt and
// FirstCrossing exactly as activating its members one at a time does,
// on lines drawn from few slopes and intercepts, so that equal slopes,
// parallel ties and concurrent crossings are common.
func TestLoadMatchesActivate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	coarse := func() float64 { return float64(rng.Intn(9)-4) / 2 }
	for trial := 0; trial < 60; trial++ {
		lines := make([]geom.Line2, 20+rng.Intn(300))
		for i := range lines {
			lines[i] = geom.Line2{A: coarse(), B: coarse()}
		}
		u := NewUniverse(lines)
		var ids []int
		for id := range lines {
			if rng.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, side := range []Side{Lower, Upper} {
			bulk, one := NewDynamic(u, side), NewDynamic(u, side)
			bulk.Load(ids)
			for _, id := range ids {
				one.Activate(id)
			}
			if bulk.Len() != one.Len() {
				t.Fatalf("trial %d side %v: Len %d, want %d", trial, side, bulk.Len(), one.Len())
			}
			for s := 0; s < 50; s++ {
				x := coarse() + float64(rng.Intn(3)-1)/4
				l := geom.Line2{A: coarse(), B: coarse()}
				gid, gv, gok := bulk.EvalAt(x)
				wid, wv, wok := one.EvalAt(x)
				if gid != wid || gv != wv || gok != wok {
					t.Fatalf("trial %d side %v: EvalAt(%v) = (%d, %v, %v), want (%d, %v, %v)", trial, side, x, gid, gv, gok, wid, wv, wok)
				}
				gx, gid, gok := bulk.FirstCrossing(l, x)
				wx, wid, wok := one.FirstCrossing(l, x)
				if gx != wx || gid != wid || gok != wok {
					t.Fatalf("trial %d side %v: FirstCrossing(%v, %v) = (%v, %d, %v), want (%v, %d, %v)", trial, side, l, x, gx, gid, gok, wx, wid, wok)
				}
			}
		}
	}
}

func BenchmarkFirstCrossing(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	lines := randomLines(rng, 10000)
	d := NewDynamic(NewUniverse(lines), Lower)
	l := geom.Line2{A: 0, B: -100} // far below: everything active is above
	for id := range lines {
		d.Activate(id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.FirstCrossing(l, -3)
	}
}

func BenchmarkActivateDeactivate(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	lines := randomLines(rng, 10000)
	d := NewDynamic(NewUniverse(lines), Lower)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % 10000
		d.Activate(id)
		d.Deactivate(id)
	}
}
