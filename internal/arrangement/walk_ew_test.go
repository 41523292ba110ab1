package arrangement

import (
	"math/rand"
	"testing"

	"linconstraint/internal/envelope"
	"linconstraint/internal/geom"
)

// walkEW runs WalkEW over the live subset of lines, as Walk is called.
func walkEW(lines []geom.Line2, live []int, k int, visit func(Vertex) bool) int {
	u := envelope.NewUniverse(lines)
	return WalkEW(u, OrderAtMinusInf(u, live), k, visit)
}

// TestWalkEWMatchesWalk: both oracles must visit the identical vertex
// sequence on generic inputs.
func TestWalkEWMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(120)
		lines := randomLines(rng, n)
		k := rng.Intn(n)
		var a, b []Vertex
		s1 := Walk(lines, allLive(n), k, func(v Vertex) bool { a = append(a, v); return true })
		s2 := walkEW(lines, allLive(n), k, func(v Vertex) bool { b = append(b, v); return true })
		if s1 != s2 {
			t.Fatalf("trial %d: different start lines %d vs %d", trial, s1, s2)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d (n=%d k=%d): %d vs %d vertices", trial, n, k, len(a), len(b))
		}
		for i := range a {
			if a[i].Enter != b[i].Enter || a[i].Leave != b[i].Leave {
				t.Fatalf("trial %d: vertex %d differs: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestWalkEWSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	lines := randomLines(rng, 60)
	live := []int{1, 5, 9, 13, 22, 30, 41, 50, 59, 3, 8}
	k := 4
	var a, b []Vertex
	Walk(lines, live, k, func(v Vertex) bool { a = append(a, v); return true })
	walkEW(lines, live, k, func(v Vertex) bool { b = append(b, v); return true })
	if len(a) != len(b) {
		t.Fatalf("%d vs %d vertices", len(a), len(b))
	}
	for i := range a {
		if a[i].Leave != b[i].Leave {
			t.Fatalf("vertex %d differs", i)
		}
	}
}

func TestWalkEWEarlyStopAndPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lines := randomLines(rng, 30)
	count := 0
	walkEW(lines, allLive(30), 3, func(v Vertex) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad k")
		}
	}()
	walkEW(lines, allLive(30), 30, nil)
}

func TestWalkEWNilVisit(t *testing.T) {
	lines := []geom.Line2{{A: 1, B: 0}, {A: -1, B: 0}}
	if got := walkEW(lines, allLive(2), 0, nil); got != 0 {
		t.Fatalf("start = %d", got)
	}
}

func BenchmarkWalkScanOracle(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	lines := randomLines(rng, 4000)
	live := allLive(4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Walk(lines, live, 60, func(Vertex) bool { return true })
	}
}

func BenchmarkWalkEWOracle(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	lines := randomLines(rng, 4000)
	u := envelope.NewUniverse(lines)
	order := OrderAtMinusInf(u, allLive(4000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WalkEW(u, order, 60, func(Vertex) bool { return true })
	}
}
