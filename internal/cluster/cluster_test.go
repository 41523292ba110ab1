package cluster

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

// bruteCluster returns the set of lines strictly below the k-level
// anywhere in the x-interval [lo, hi], sampled densely at level vertices
// implied by pairwise crossings — for verification we sample many x.
func linesBelowLevelAt(lines []geom.Line2, live []int, k int, x float64) map[int]bool {
	ord := append([]int(nil), live...)
	sort.Slice(ord, func(i, j int) bool { return lines[ord[i]].Eval(x) < lines[ord[j]].Eval(x) })
	out := make(map[int]bool, k)
	for _, id := range ord[:k] {
		out[id] = true
	}
	return out
}

func TestLemma32ClusterSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(120)
		k := 1 + rng.Intn(n/4)
		lines := randomLines(rng, n)
		cl := BuildGreedy(envelope.NewUniverse(lines), allLive(n), k)
		if len(cl.Clusters) > n/k+1 {
			t.Fatalf("trial %d: %d clusters for N=%d k=%d exceeds N/k", trial, len(cl.Clusters), n, k)
		}
		for i, c := range cl.Clusters {
			if len(c) > 3*k {
				t.Fatalf("trial %d: cluster %d has %d > 3k lines", trial, i, len(c))
			}
			if !sort.SliceIsSorted(c, func(a, b int) bool { return lines[c[a]].A < lines[c[b]].A }) {
				t.Fatalf("trial %d: cluster %d not slope-sorted", trial, i)
			}
		}
		if len(cl.Boundaries) != len(cl.Clusters)-1 {
			t.Fatalf("trial %d: %d boundaries for %d clusters", trial, len(cl.Boundaries), len(cl.Clusters))
		}
		if !sort.Float64sAreSorted(cl.Boundaries) {
			t.Fatalf("trial %d: boundaries unsorted", trial)
		}
	}
}

// TestLemma32Retirement verifies the heart of Lemma 3.2: each cluster
// except the last contains at least k lines that appear in no later
// cluster.
func TestLemma32Retirement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 60 + rng.Intn(100)
		k := 2 + rng.Intn(8)
		lines := randomLines(rng, n)
		cl := BuildGreedy(envelope.NewUniverse(lines), allLive(n), k)
		for i := 0; i+1 < len(cl.Clusters); i++ {
			later := make(map[int]bool)
			for _, c := range cl.Clusters[i+1:] {
				for _, id := range c {
					later[id] = true
				}
			}
			retired := 0
			for _, id := range cl.Clusters[i] {
				if !later[id] {
					retired++
				}
			}
			if retired < k {
				t.Fatalf("trial %d: cluster %d retires only %d < k=%d lines", trial, i, retired, k)
			}
		}
	}
}

// TestCorollary33Interval verifies that each line's cluster indices form
// a contiguous interval.
func TestCorollary33Interval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 60 + rng.Intn(100)
		k := 2 + rng.Intn(8)
		lines := randomLines(rng, n)
		cl := BuildGreedy(envelope.NewUniverse(lines), allLive(n), k)
		appear := make(map[int][]int)
		for i, c := range cl.Clusters {
			for _, id := range c {
				appear[id] = append(appear[id], i)
			}
		}
		for id, idxs := range appear {
			for j := 1; j < len(idxs); j++ {
				if idxs[j] != idxs[j-1]+1 {
					t.Fatalf("trial %d: line %d appears in clusters %v (gap)", trial, id, idxs)
				}
			}
		}
	}
}

// TestClusterCoverage verifies the defining property (Fig. 3): the
// relevant cluster for x contains every line strictly below the level at
// x — this is what Lemma 3.1's query shortcut relies on.
func TestClusterCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 40 + rng.Intn(80)
		k := 2 + rng.Intn(6)
		lines := randomLines(rng, n)
		live := allLive(n)
		cl := BuildGreedy(envelope.NewUniverse(lines), live, k)
		for s := 0; s < 200; s++ {
			x := rng.NormFloat64() * 2
			rel := cl.Relevant(x)
			inCluster := make(map[int]bool)
			for _, id := range cl.Clusters[rel] {
				inCluster[id] = true
			}
			for id := range linesBelowLevelAt(lines, live, k, x) {
				if !inCluster[id] {
					t.Fatalf("trial %d: line %d below level at x=%v missing from relevant cluster %d",
						trial, id, x, rel)
				}
			}
		}
	}
}

func TestMembersIsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lines := randomLines(rng, 80)
	cl := BuildGreedy(envelope.NewUniverse(lines), allLive(80), 5)
	want := make(map[int]bool)
	for _, c := range cl.Clusters {
		for _, id := range c {
			want[id] = true
		}
	}
	if len(cl.Members) != len(want) {
		t.Fatalf("Members size %d, union size %d", len(cl.Members), len(want))
	}
	for _, id := range cl.Members {
		if !want[id] {
			t.Fatalf("Members contains %d not in any cluster", id)
		}
	}
	if !sort.IntsAreSorted(cl.Members) {
		t.Fatal("Members not sorted")
	}
}

func TestRelevantBuckets(t *testing.T) {
	cl := &Clustering{Boundaries: []float64{-1, 0, 2}}
	cases := []struct {
		x    float64
		want int
	}{{-5, 0}, {-1, 1}, {-0.5, 1}, {0, 2}, {1.9, 2}, {2, 3}, {7, 3}}
	for _, c := range cases {
		if got := cl.Relevant(c.x); got != c.want {
			t.Errorf("Relevant(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestSingle(t *testing.T) {
	lines := []geom.Line2{{A: 3}, {A: 1}, {A: 2}}
	cl := Single(envelope.NewUniverse(lines), []int{0, 1, 2})
	if len(cl.Clusters) != 1 || len(cl.Boundaries) != 0 {
		t.Fatal("Single shape")
	}
	if got := cl.Clusters[0]; got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("Single not slope-sorted: %v", got)
	}
	if cl.Relevant(123) != 0 {
		t.Fatal("Relevant on Single")
	}
}

func TestBuildGreedyPanics(t *testing.T) {
	lines := []geom.Line2{{A: 1}, {A: 2}}
	for _, k := range []int{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for k=%d", k)
				}
			}()
			BuildGreedy(envelope.NewUniverse(lines), []int{0, 1}, k)
		}()
	}
}
