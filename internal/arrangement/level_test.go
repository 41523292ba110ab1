package arrangement

import (
	"math/rand"
	"sort"
	"testing"

	"linconstraint/internal/envelope"
	"linconstraint/internal/geom"
)

func randomLines(rng *rand.Rand, n int) []geom.Line2 {
	ls := make([]geom.Line2, n)
	for i := range ls {
		ls[i] = geom.Line2{A: rng.NormFloat64(), B: rng.NormFloat64()}
	}
	return ls
}

func allLive(n int) []int {
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	return live
}

// levelAtBruteForce returns the index of the line with exactly k lines
// strictly below it at abscissa x (i.e. the (k+1)-th lowest).
func levelAtBruteForce(lines []geom.Line2, live []int, k int, x float64) int {
	ord := append([]int(nil), live...)
	sort.Slice(ord, func(i, j int) bool {
		return lines[ord[i]].Eval(x) < lines[ord[j]].Eval(x)
	})
	return ord[k]
}

func TestOrderAtMinusInf(t *testing.T) {
	lines := []geom.Line2{{A: 1, B: 0}, {A: 3, B: 0}, {A: 2, B: 5}, {A: 2, B: -5}}
	got := OrderAtMinusInf(envelope.NewUniverse(lines), allLive(4))
	want := []int{1, 3, 2, 0} // slope desc, intercept asc on ties
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestWalkMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(40)
		lines := randomLines(rng, n)
		k := rng.Intn(n)
		lvl := ComputeLevel(lines, allLive(n), k)

		// Sample the level at many abscissae, compare with brute force.
		for s := 0; s < 50; s++ {
			x := rng.NormFloat64() * 3
			want := levelAtBruteForce(lines, allLive(n), k, x)
			got := lvl.LineAt(x)
			if got != want {
				// Equal evaluation means a tie; accept either line.
				if lines[got].Eval(x) != lines[want].Eval(x) {
					t.Fatalf("trial %d: level %d at x=%v: line %d, want %d", trial, k, x, got, want)
				}
			}
		}
	}
}

func TestWalkXMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lines := randomLines(rng, 60)
	lvl := ComputeLevel(lines, allLive(60), 7)
	for i := 1; i < len(lvl.Vertices); i++ {
		if lvl.Vertices[i].X < lvl.Vertices[i-1].X {
			t.Fatalf("vertices not x-sorted at %d", i)
		}
	}
	// Chain continuity: each vertex's Enter equals the previous Leave.
	prev := lvl.Start
	for i, v := range lvl.Vertices {
		if v.Enter != prev {
			t.Fatalf("vertex %d enters on %d, want %d", i, v.Enter, prev)
		}
		prev = v.Leave
	}
}

func TestWalkVertexLevels(t *testing.T) {
	// At the midpoint of every level edge, exactly k lines lie strictly below.
	rng := rand.New(rand.NewSource(3))
	n, k := 50, 11
	lines := randomLines(rng, n)
	lvl := ComputeLevel(lines, allLive(n), k)
	check := func(x float64, cur int) {
		y := lines[cur].Eval(x)
		below := 0
		for i, l := range lines {
			if i != cur && l.Eval(x) < y {
				below++
			}
		}
		if below != k {
			t.Fatalf("edge at x=%v on line %d has %d below, want %d", x, cur, below, k)
		}
	}
	if len(lvl.Vertices) == 0 {
		t.Fatal("expected vertices")
	}
	check(lvl.Vertices[0].X-1, lvl.Start)
	for i := 0; i+1 < len(lvl.Vertices); i++ {
		mid := (lvl.Vertices[i].X + lvl.Vertices[i+1].X) / 2
		check(mid, lvl.Vertices[i].Leave)
	}
	last := lvl.Vertices[len(lvl.Vertices)-1]
	check(last.X+1, last.Leave)
}

func TestConvexityFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lines := randomLines(rng, 40)
	lvl := ComputeLevel(lines, allLive(40), 5)
	for _, v := range lvl.Vertices {
		want := lines[v.Enter].A < lines[v.Leave].A
		if v.Convex != want {
			t.Fatalf("convexity flag wrong at x=%v", v.X)
		}
	}
}

func TestLevelZeroIsLowerEnvelope(t *testing.T) {
	// The 0-level is the lower envelope: no line is ever below it.
	rng := rand.New(rand.NewSource(5))
	lines := randomLines(rng, 30)
	lvl := ComputeLevel(lines, allLive(30), 0)
	for s := 0; s < 100; s++ {
		x := rng.NormFloat64() * 2
		y := lvl.EvalAt(lines, x)
		for _, l := range lines {
			if l.Eval(x) < y-1e-9 {
				t.Fatalf("line below the 0-level at x=%v", x)
			}
		}
	}
}

func TestWalkSubsetLive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lines := randomLines(rng, 40)
	live := []int{3, 7, 11, 15, 19, 23, 27, 31, 35, 39}
	k := 4
	lvl := ComputeLevel(lines, live, k)
	for s := 0; s < 40; s++ {
		x := rng.NormFloat64() * 2
		want := levelAtBruteForce(lines, live, k, x)
		if got := lvl.LineAt(x); got != want && lines[got].Eval(x) != lines[want].Eval(x) {
			t.Fatalf("subset walk wrong at x=%v: %d want %d", x, got, want)
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lines := randomLines(rng, 30)
	count := 0
	Walk(lines, allLive(30), 3, func(v Vertex) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestWalkPanicsOnBadLevel(t *testing.T) {
	lines := []geom.Line2{{A: 1}, {A: 2}}
	for _, k := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for k=%d", k)
				}
			}()
			Walk(lines, allLive(2), k, nil)
		}()
	}
}

func TestTwoLinesCross(t *testing.T) {
	lines := []geom.Line2{{A: 1, B: 0}, {A: -1, B: 0}}
	lvl := ComputeLevel(lines, allLive(2), 0)
	if len(lvl.Vertices) != 1 || lvl.Vertices[0].X != 0 {
		t.Fatalf("vertices = %+v", lvl.Vertices)
	}
	if lvl.Start != 0 { // slope 1 is lowest at -inf
		t.Fatalf("start = %d", lvl.Start)
	}
	if lvl.Vertices[0].Leave != 1 {
		t.Fatal("level must switch lines at the crossing")
	}
}

// TestDeyBoundScaling sanity-checks the vertex counts against Dey's
// O(N·k^{1/3}) bound for planar k-levels (§2.3) at small scale.
func TestDeyBoundScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 200
	lines := randomLines(rng, n)
	for _, k := range []int{1, 5, 20, 60} {
		lvl := ComputeLevel(lines, allLive(n), k)
		// Generous constant; random arrangements are far below the bound.
		limit := 8 * float64(n) * cbrt(float64(k+1))
		if float64(len(lvl.Vertices)) > limit {
			t.Fatalf("k=%d: %d vertices exceeds Dey-style budget %g", k, len(lvl.Vertices), limit)
		}
	}
}

func cbrt(x float64) float64 {
	// Newton iterations suffice for a test helper.
	g := x
	if g == 0 {
		return 0
	}
	for i := 0; i < 60; i++ {
		g = (2*g + x/(g*g)) / 3
	}
	return g
}

func BenchmarkWalkLevel(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	lines := randomLines(rng, 2000)
	live := allLive(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLevel(lines, live, 50)
	}
}
