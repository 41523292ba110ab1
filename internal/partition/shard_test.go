package partition

import (
	"math"
	"math/rand"
	"testing"

	"linconstraint/internal/geom"
)

func randPts(rng *rand.Rand, n, d int) []geom.PointD {
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

// Every layout must produce a complete assignment into [0, s) with
// near-perfect balance (round-robin and SFC are exact; kd-cut rounds a
// proportional split at every level, so allow a small slack).
func TestLayoutsBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{2, 3} {
		pts := randPts(rng, 1000, d)
		for _, mk := range []func() Partitioner{
			func() Partitioner { return RoundRobin{} },
			func() Partitioner { return NewSFC() },
			func() Partitioner { return NewKDCut() },
		} {
			p := mk()
			for _, s := range []int{1, 2, 5, 8} {
				asg := p.Split(pts, s)
				if len(asg) != len(pts) {
					t.Fatalf("%s d=%d s=%d: assignment length %d", p.Name(), d, s, len(asg))
				}
				counts := make([]int, s)
				for _, si := range asg {
					if si < 0 || si >= s {
						t.Fatalf("%s d=%d s=%d: shard %d out of range", p.Name(), d, s, si)
					}
					counts[si]++
				}
				want := len(pts) / s
				for si, c := range counts {
					if c < want-want/4-1 || c > want+want/4+1 {
						t.Errorf("%s d=%d s=%d: shard %d holds %d of %d (want ~%d)",
							p.Name(), d, s, si, c, len(pts), want)
					}
				}
			}
		}
	}
}

// After Split, the locality-aware layouts must Place a build point on a
// shard whose summary box contains it — Place and Split agree on the
// geometry (ties at cut planes may route to the neighboring tile, which
// is why the check is box containment, not assignment equality).
func TestPlaceLandsInSummarizedRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPts(rng, 800, 2)
	const s = 8
	for _, mk := range []func() Partitioner{
		func() Partitioner { return NewSFC() },
		func() Partitioner { return NewKDCut() },
	} {
		p := mk()
		asg := p.Split(pts, s)
		sums := Summarize(pts, asg, s)
		for i, pt := range pts {
			si := p.Place(pt, s)
			if si < 0 || si >= s {
				t.Fatalf("%s: Place(%v) = %d after Split", p.Name(), pt, si)
			}
			if si == asg[i] {
				continue
			}
			// A tie at a cut boundary may route to a neighbor tile; the
			// point must at least be summarize-coverable there or on its
			// Split shard.
			in := func(sum ShardSummary) bool {
				return sum.Box.Min != nil && inBox(sum.Box, pt)
			}
			if !in(sums[si]) && !in(sums[asg[i]]) {
				t.Errorf("%s: point %d placed on %d, split to %d, inside neither box",
					p.Name(), i, si, asg[i])
			}
		}
	}
}

// Untrained locality-aware layouts (no Split, as in an empty dynamic
// engine) must delegate placement, as must round-robin always.
func TestPlaceDelegatesUntrained(t *testing.T) {
	p := geom.PointD{0.3, 0.7}
	if si := (RoundRobin{}).Place(p, 4); si != -1 {
		t.Errorf("round-robin Place = %d, want -1", si)
	}
	if si := NewSFC().Place(p, 4); si != -1 {
		t.Errorf("untrained SFC Place = %d, want -1", si)
	}
	if si := NewKDCut().Place(p, 4); si != -1 {
		t.Errorf("untrained kd-cut Place = %d, want -1", si)
	}
	z := NewSFC()
	z.Split(randPts(rand.New(rand.NewSource(3)), 100, 2), 4)
	if si := z.Place(geom.PointD{0.1, 0.2, 0.3}, 4); si != -1 {
		t.Errorf("SFC Place of wrong dimension = %d, want -1", si)
	}
}

// Summaries must cover every record assigned to their shard: box
// containment and directional minima (the planner's soundness rests on
// this invariant).
func TestSummarySoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPts(rng, 500, 2)
	p := NewKDCut()
	const s = 6
	asg := p.Split(pts, s)
	sums := Summarize(pts, asg, s)
	total := 0
	for _, sum := range sums {
		total += sum.Count
	}
	if total != len(pts) {
		t.Fatalf("summary counts sum to %d, want %d", total, len(pts))
	}
	dirs := Directions2()
	for i, pt := range pts {
		sum := sums[asg[i]]
		if !inBox(sum.Box, pt) {
			t.Fatalf("point %d outside its shard box", i)
		}
		for j, u := range dirs {
			if v := u[0]*pt[0] + u[1]*pt[1]; v < sum.DirLo[j]-1e-12 {
				t.Fatalf("point %d below DirLo[%d]: %g < %g", i, j, v, sum.DirLo[j])
			}
		}
	}
}

// Add must grow a summary incrementally to the same region Summarize
// computes in bulk, and mixed-dimension adds must not corrupt it.
func TestSummaryAddMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPts(rng, 200, 2)
	var inc ShardSummary
	for _, p := range pts {
		inc.Add(p)
	}
	asg := make([]int, len(pts))
	bulk := Summarize(pts, asg, 1)[0]
	if inc.Count != bulk.Count {
		t.Fatalf("Count %d != %d", inc.Count, bulk.Count)
	}
	for i := range inc.Box.Min {
		if inc.Box.Min[i] != bulk.Box.Min[i] || inc.Box.Max[i] != bulk.Box.Max[i] {
			t.Fatalf("box mismatch on axis %d", i)
		}
	}
	for j := range inc.DirLo {
		if math.Abs(inc.DirLo[j]-bulk.DirLo[j]) > 1e-12 {
			t.Fatalf("DirLo[%d] %g != %g", j, inc.DirLo[j], bulk.DirLo[j])
		}
	}
	before := inc.Count
	inc.Add(geom.PointD{1, 2, 3}) // wrong dimension: counted, region untouched
	if inc.Count != before+1 || len(inc.Box.Min) != 2 {
		t.Fatalf("mixed-dimension Add corrupted the summary: %+v", inc)
	}
}

// Clone must detach the summary from later in-place mutation.
func TestSummaryClone(t *testing.T) {
	var s ShardSummary
	s.Add(geom.PointD{0.5, 0.5})
	c := s.Clone()
	s.Add(geom.PointD{2, 2})
	if c.Box.Max[0] != 0.5 || c.Count != 1 {
		t.Fatalf("clone mutated by later Add: %+v", c)
	}
}

// Z-order keys must respect locality at the coarsest level: points in
// opposite corners of the box get keys in different halves.
func TestSFCKeyOrdering(t *testing.T) {
	z := NewSFC()
	pts := []geom.PointD{{0, 0}, {1, 1}, {0.1, 0.1}, {0.9, 0.9}}
	z.Split(pts, 2)
	if z.key(pts[0]) >= z.key(pts[1]) {
		t.Fatal("origin key must precede far-corner key")
	}
	if z.key(pts[2]) >= z.key(pts[3]) {
		t.Fatal("near-origin key must precede near-corner key")
	}
}

// inBox reports whether p lies in the closed box b.
func inBox(b geom.Box, p geom.PointD) bool {
	for i := range b.Min {
		if p[i] < b.Min[i] || p[i] > b.Max[i] {
			return false
		}
	}
	return true
}
