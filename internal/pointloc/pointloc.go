// Package pointloc provides external-memory planar point location for the
// xy-projection of a triangulated lower envelope, as required by §4.1:
// given a query (x, y), find the envelope triangle directly above or
// below it in O(log n) I/Os.
//
// The paper uses the external point-location structures of [7, 27]; we
// substitute a slab structure (DESIGN.md substitution 3): slab boundaries
// are the x-coordinates of all triangle vertices, so within a slab every
// triangle either spans it completely or misses it, and the spanning
// triangles are totally ordered vertically. A static directory over the
// slab boundaries (eio.Dir) finds the slab in O(log_B s) I/Os and a
// B-ary descent through the slab's vertically ordered triangles finds
// the hit in O(log_B m) I/Os.
package pointloc

import (
	"sort"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/hull3d"
)

// Locator finds the envelope triangle above/below a query point.
type Locator interface {
	// Locate returns the index (into the envelope's Tris) of a triangle
	// whose projection contains (x, y).
	Locate(x, y float64) (int, bool)
}

// slabEntry stores a triangle id together with its projected geometry so
// the binary-search comparator reads only the blocks it touches.
type slabEntry struct {
	Tri int32
	P   [3]geom.Point2
}

// Slab is the slab-decomposition locator. Each slab's vertically ordered
// triangles are stored with a static B-ary index (coarser levels keep
// every B-th entry), so a search reads O(log_B m) blocks rather than
// binary-probing one block per halving.
type Slab struct {
	dev    *eio.Device
	xs     []float64 // slab boundaries (sorted, deduped)
	dir    *eio.Dir  // over xs[:len(slabs)]; Rank(x)-1 is the slab holding x
	slabs  []slabLevels
	window hull3d.Window
}

// slabLevels holds the per-slab search hierarchy: levels[0] is the full
// ordered entry list; levels[k+1] keeps every B-th entry of levels[k].
type slabLevels struct {
	levels []*eio.Array[slabEntry]
}

// NewSlab builds the slab locator for env on dev.
func NewSlab(dev *eio.Device, env *hull3d.Envelope) *Slab {
	s := &Slab{dev: dev, window: env.Window}
	seen := make(map[float64]bool)
	for _, tr := range env.Tris {
		for _, v := range tr.P {
			if !seen[v.X] {
				seen[v.X] = true
				s.xs = append(s.xs, v.X)
			}
		}
	}
	sort.Float64s(s.xs)
	if len(s.xs) < 2 {
		s.xs = []float64{env.Window.XMin, env.Window.XMax}
	}

	nSlabs := len(s.xs) - 1
	bySlab := make([][]slabEntry, nSlabs)
	for ti, tr := range env.Tris {
		xmin, xmax := tr.P[0].X, tr.P[0].X
		for _, v := range tr.P[1:] {
			if v.X < xmin {
				xmin = v.X
			}
			if v.X > xmax {
				xmax = v.X
			}
		}
		lo := sort.SearchFloat64s(s.xs, xmin)
		for k := lo; k < nSlabs && s.xs[k] < xmax; k++ {
			e := slabEntry{Tri: int32(ti)}
			for j, v := range tr.P {
				e.P[j] = geom.Point2{X: v.X, Y: v.Y}
			}
			bySlab[k] = append(bySlab[k], e)
		}
	}

	for k := 0; k < nSlabs; k++ {
		xc := (s.xs[k] + s.xs[k+1]) / 2
		sort.Slice(bySlab[k], func(a, b int) bool {
			la, ha := yRangeAt(bySlab[k][a], xc)
			lb, hb := yRangeAt(bySlab[k][b], xc)
			return la+ha < lb+hb
		})
		var lv slabLevels
		cur := bySlab[k]
		for {
			lv.levels = append(lv.levels, eio.NewArray(dev, cur))
			if len(cur) <= dev.B() {
				break
			}
			var up []slabEntry
			for i := 0; i < len(cur); i += dev.B() {
				up = append(up, cur[i])
			}
			cur = up
		}
		s.slabs = append(s.slabs, lv)
	}
	s.dir = eio.NewDir(dev, s.xs[:nSlabs])
	return s
}

// yRangeAt returns the y-interval of the triangle's projection at
// abscissa x (valid when the triangle spans x).
func yRangeAt(e slabEntry, x float64) (lo, hi float64) {
	first := true
	add := func(y float64) {
		if first {
			lo, hi = y, y
			first = false
			return
		}
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	for i := 0; i < 3; i++ {
		p, q := e.P[i], e.P[(i+1)%3]
		if p.X == q.X {
			if p.X == x {
				add(p.Y)
				add(q.Y)
			}
			continue
		}
		if (p.X <= x && x <= q.X) || (q.X <= x && x <= p.X) {
			t := (x - p.X) / (q.X - p.X)
			add(p.Y + t*(q.Y-p.Y))
		}
	}
	return lo, hi
}

// SpaceBlocks reports the total slab-entry volume, for space accounting.
func (s *Slab) SpaceBlocks() int {
	total := 0
	for _, lv := range s.slabs {
		for _, a := range lv.levels {
			total += a.Blocks()
		}
	}
	return total
}

// Locate implements Locator with O(log_B s + log_B m) I/Os: a directory
// descent to the slab, then a B-ary descent through the slab's index
// levels, reading ~one block per level.
func (s *Slab) Locate(x, y float64) (int, bool) {
	if !s.window.Contains(x, y) {
		return 0, false
	}
	k := max(s.dir.Rank(x)-1, 0)
	if k >= len(s.slabs) {
		k = len(s.slabs) - 1
	}
	lv := s.slabs[k]
	const eps = 1e-9
	b := s.dev.B()
	// Descend from the coarsest level: maintain the candidate range
	// [lo, hi) in the current level's entries.
	top := len(lv.levels) - 1
	lo, hi := 0, lv.levels[top].Len()
	for level := top; level >= 0; level-- {
		arr := lv.levels[level]
		// Find the last entry in [lo, hi) whose lower boundary is <= y.
		best := -1
		arr.Scan(lo, hi, func(i int, e slabEntry) bool {
			ylo, _ := yRangeAt(e, x)
			if y >= ylo-eps {
				best = i
				return true
			}
			return false
		})
		if best < 0 {
			best = lo
		}
		e := arr.Get(best)
		ylo, yhi := yRangeAt(e, x)
		if y >= ylo-eps && y <= yhi+eps {
			return int(e.Tri), true
		}
		if level == 0 {
			// Tolerate boundary rounding: check the next entry up.
			if best+1 < arr.Len() {
				e2 := arr.Get(best + 1)
				if l2, h2 := yRangeAt(e2, x); y >= l2-eps && y <= h2+eps {
					return int(e2.Tri), true
				}
			}
			return 0, false
		}
		// Refine into the next finer level.
		lo = best * b
		hi = lo + b
		if hi > lv.levels[level-1].Len() {
			hi = lv.levels[level-1].Len()
		}
	}
	return 0, false
}

// Brute is a reference locator that scans the whole triangle set through
// a blocked array, used for cross-checks and as an honest Ω(n) fallback.
type Brute struct {
	arr *eio.Array[slabEntry]
}

// NewBrute builds the reference locator on dev.
func NewBrute(dev *eio.Device, env *hull3d.Envelope) *Brute {
	entries := make([]slabEntry, len(env.Tris))
	for i, tr := range env.Tris {
		entries[i] = slabEntry{Tri: int32(i)}
		for j, v := range tr.P {
			entries[i].P[j] = geom.Point2{X: v.X, Y: v.Y}
		}
	}
	return &Brute{arr: eio.NewArray(dev, entries)}
}

// Locate scans all triangles.
func (b *Brute) Locate(x, y float64) (int, bool) {
	found, ok := 0, false
	q := geom.Point2{X: x, Y: y}
	b.arr.All(func(_ int, e slabEntry) bool {
		s1 := geom.Orient2D(e.P[0], e.P[1], q)
		s2 := geom.Orient2D(e.P[1], e.P[2], q)
		s3 := geom.Orient2D(e.P[2], e.P[0], q)
		if (s1 >= 0 && s2 >= 0 && s3 >= 0) || (s1 <= 0 && s2 <= 0 && s3 <= 0) {
			found, ok = int(e.Tri), true
			return false
		}
		return true
	})
	return found, ok
}
