package halfspace2d

import (
	"math/rand"
	"sort"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
)

func randomLines(rng *rand.Rand, n int) []geom.Line2 {
	ls := make([]geom.Line2, n)
	for i := range ls {
		ls[i] = geom.Line2{A: rng.NormFloat64(), B: rng.NormFloat64()}
	}
	return ls
}

func bruteBelow(lines []geom.Line2, q geom.Point2) []int {
	var out []int
	for i, l := range lines {
		if geom.SideOfLine2(l, q) >= 0 {
			out = append(out, i)
		}
	}
	return out
}

func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueryMatchesBruteForce is the master correctness property: the
// structure's answer equals the brute-force answer for random instances
// and queries at all output sizes.
func TestQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		n := 200 + rng.Intn(1500)
		lines := randomLines(rng, n)
		dev := eio.NewDevice(16, 0)
		idx := New(dev, lines, Options{Seed: int64(trial)})
		for s := 0; s < 60; s++ {
			q := geom.Point2{X: rng.NormFloat64() * 2, Y: rng.NormFloat64() * 3}
			got := idx.Below(q)
			want := bruteBelow(lines, q)
			if !equalSets(got, want) {
				t.Fatalf("trial %d: query %v: got %d lines, want %d", trial, q, len(got), len(want))
			}
		}
	}
}

// TestQueryExtremes exercises empty and full outputs.
func TestQueryExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lines := randomLines(rng, 500)
	dev := eio.NewDevice(16, 0)
	idx := New(dev, lines, Options{})
	if got := idx.Below(geom.Point2{X: 0, Y: -1e9}); len(got) != 0 {
		t.Fatalf("deep point returned %d lines", len(got))
	}
	if got := idx.Below(geom.Point2{X: 0, Y: 1e9}); len(got) != 500 {
		t.Fatalf("high point returned %d lines, want all", len(got))
	}
}

func TestSmallInputs(t *testing.T) {
	dev := eio.NewDevice(8, 0)
	for n := 0; n <= 10; n++ {
		rng := rand.New(rand.NewSource(int64(n)))
		lines := randomLines(rng, n)
		idx := New(dev, lines, Options{})
		q := geom.Point2{X: 0.3, Y: 0.1}
		if !equalSets(idx.Below(q), bruteBelow(lines, q)) {
			t.Fatalf("n=%d mismatch", n)
		}
	}
}

// TestSpaceLinear verifies the O(n) block bound of Theorem 3.5.
func TestSpaceLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := 32
	n := 1 << 13
	lines := randomLines(rng, n)
	dev := eio.NewDevice(b, 0)
	New(dev, lines, Options{})
	blocks := dev.SpaceBlocks()
	// Each line is stored once per cluster it appears in; the retirement
	// argument bounds total cluster volume by ~3x the input plus boundary
	// directory and per-cluster rounding overhead.
	budget := int64(8 * n / b)
	if blocks > budget {
		t.Fatalf("space %d blocks for n=%d B=%d, budget %d", blocks, n, b, budget)
	}
}

// TestPhaseCount verifies m <= N/beta + 1 (§3.2).
func TestPhaseCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 4000
	lines := randomLines(rng, n)
	dev := eio.NewDevice(16, 0)
	idx := New(dev, lines, Options{})
	if idx.Phases() > n/idx.beta+1 {
		t.Fatalf("%d phases exceeds N/beta = %d", idx.Phases(), n/idx.beta)
	}
}

// TestQueryIOCost verifies the shape of the O(log_B n + t) bound: the
// I/Os of a query are bounded by c1·log_B n + c2·t for moderate constants.
func TestQueryIOCost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := 32
	n := 1 << 13
	lines := randomLines(rng, n)
	dev := eio.NewDevice(b, 0)
	idx := New(dev, lines, Options{})
	logBn := 1
	for v := 1; v < n/b; v *= b {
		logBn++
	}
	for s := 0; s < 200; s++ {
		q := geom.Point2{X: rng.NormFloat64(), Y: rng.NormFloat64() * 2}
		dev.ResetCounters()
		res := idx.Below(q)
		ios := dev.Stats().IOs()
		tblocks := int64(len(res)/b + 1)
		budget := int64(40*logBn) + 30*tblocks
		if ios > budget {
			t.Fatalf("query with t=%d blocks output cost %d I/Os, budget %d", tblocks, ios, budget)
		}
	}
}

// TestAdversarialDiagonal is the §1.2 scenario: points near a diagonal
// line with queries just below it — quadtree-style structures degrade to
// Ω(n) here, this structure must not.
func TestAdversarialDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 4096
	pts := make([]geom.Point2, n)
	for i := range pts {
		x := rng.Float64()
		pts[i] = geom.Point2{X: x, Y: x + rng.NormFloat64()*1e-6}
	}
	dev := eio.NewDevice(32, 0)
	idx := NewPoints(dev, pts, Options{})
	// Query halfplane just below the diagonal: tiny output.
	dev.ResetCounters()
	got := idx.Halfplane(1, -1e-3)
	want := 0
	for _, p := range pts {
		if p.Y <= p.X-1e-3 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("adversarial answer %d, want %d", len(got), want)
	}
	ios := dev.Stats().IOs()
	if ios > int64(n/32/4) {
		t.Fatalf("adversarial near-empty query cost %d I/Os — degraded toward Ω(n)", ios)
	}
}

func TestPointIndexHalfplane(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point2, 800)
	for i := range pts {
		pts[i] = geom.Point2{X: rng.NormFloat64(), Y: rng.NormFloat64()}
	}
	dev := eio.NewDevice(16, 0)
	idx := NewPoints(dev, pts, Options{})
	for s := 0; s < 40; s++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		got := idx.Halfplane(a, b)
		var want []int
		for i, p := range pts {
			if geom.SideOfLine2(geom.Line2{A: a, B: b}, p) <= 0 {
				want = append(want, i)
			}
		}
		if !equalSets(got, want) {
			t.Fatalf("halfplane (%v,%v): got %d, want %d", a, b, len(got), len(want))
		}
	}
	if len(idx.Points()) != 800 {
		t.Fatal("Points accessor")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	lines := randomLines(rng, 600)
	d1 := eio.NewDevice(16, 0)
	d2 := eio.NewDevice(16, 0)
	i1 := New(d1, lines, Options{Seed: 99})
	i2 := New(d2, lines, Options{Seed: 99})
	if i1.Phases() != i2.Phases() {
		t.Fatal("same seed produced different structures")
	}
}

func TestCeilLogB(t *testing.T) {
	cases := []struct{ n, b, want int }{{1, 8, 1}, {8, 8, 1}, {9, 8, 2}, {64, 8, 2}, {65, 8, 3}, {0, 4, 1}}
	for _, c := range cases {
		if got := ceilLogB(c.n, c.b); got != c.want {
			t.Errorf("ceilLogB(%d,%d) = %d, want %d", c.n, c.b, got, c.want)
		}
	}
}

func TestSubtractSorted(t *testing.T) {
	live := []int{1, 2, 3, 5, 8, 9}
	got := subtractSorted(live, []int{2, 8})
	want := []int{1, 3, 5, 9}
	if !equalSets(got, want) {
		t.Fatalf("subtract = %v", got)
	}
}
