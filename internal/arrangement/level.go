// Package arrangement implements the 2D line-arrangement machinery of
// §2.2–2.3: walking the k-level A_k(L) of a set of non-vertical lines from
// left to right, visiting its vertices in x order. The k-level is the
// closure of the edges whose points have exactly k lines strictly below
// them (Fig. 2); it is an x-monotone polygonal chain.
//
// The traversal is the Edelsbrunner–Welzl walk: while the level lies on
// line l, the next level vertex is the first crossing of l with any other
// line to the right, at which the level always switches to the crossing
// line. The paper finds that crossing with the dynamic envelope structure
// of Overmars–van Leeuwen [43]; WalkEW, the walk the §3 build runs, asks
// the square-root envelopes of internal/envelope instead (DESIGN.md
// substitution 1). Walk finds it with a goroutine-parallel scan over the
// live lines; it is WalkEW's reference and visits the exact same
// vertices.
//
// General position is assumed (no two parallel live lines carrying the
// level through the same crossing chain, no three lines concurrent);
// exact float ties at a vertex are handled by the slope-mirror rule so
// that simple degeneracies do not derail the walk.
package arrangement

import (
	"runtime"
	"sort"
	"sync"

	"linconstraint/internal/envelope"
	"linconstraint/internal/geom"
)

// Vertex is one vertex of a k-level, where the level switches from line
// Enter to line Leave (indices into the walk's line slice).
type Vertex struct {
	X, Y   float64
	Enter  int
	Leave  int
	Convex bool // true for a convex (downward) vertex: slope(Enter) < slope(Leave)
}

// OrderAtMinusInf returns the live line indices ordered bottom-to-top at
// x = -infinity: by slope descending, ties by intercept ascending. It
// sorts nothing: it keeps the live lines of u's slope order and reverses
// the runs of equal slope, in O(U).
func OrderAtMinusInf(u *envelope.Universe, live []int) []int {
	in := make([]bool, len(u.Lines))
	for _, id := range live {
		in[id] = true
	}
	out := make([]int, 0, len(live))
	for i := len(u.Order); i > 0; {
		a, j := u.Lines[u.Order[i-1]].A, i-1
		for j > 0 && u.Lines[u.Order[j-1]].A == a {
			j--
		}
		for _, id := range u.Order[j:i] {
			if in[id] {
				out = append(out, id)
			}
		}
		i = j
	}
	return out
}

// Walk traverses the k-level of the live subset of lines (0 <= k <
// len(live)), calling visit for each vertex in left-to-right order until
// visit returns false or the level's rightmost edge is reached. It
// returns the index of the line carrying the level at x = -infinity.
//
// The level of a point is the number of lines strictly below it, so the
// walk starts on the (k+1)-th lowest line at -infinity.
func Walk(lines []geom.Line2, live []int, k int, visit func(Vertex) bool) int {
	if k < 0 || k >= len(live) {
		panic("arrangement: level index out of range")
	}
	order := OrderAtMinusInf(envelope.NewUniverse(lines), live)
	cur := order[k]
	start := cur
	if visit == nil {
		return start
	}

	slopes := make([]float64, 0, len(live))
	inters := make([]float64, 0, len(live))
	idx := make([]int, 0, len(live))
	for _, i := range live {
		slopes = append(slopes, lines[i].A)
		inters = append(inters, lines[i].B)
		idx = append(idx, i)
	}

	// Loop guard: the walk can visit at most one vertex per arrangement
	// vertex; exceeding that indicates a degeneracy cycle.
	maxSteps := len(live)*(len(live)-1)/2 + 4

	x0 := negInf
	for step := 0; step < maxSteps; step++ {
		xc, js := nextCrossing(slopes, inters, idx, cur, x0)
		if len(js) == 0 {
			return start
		}
		next := idx[js[0]]
		if len(js) > 1 {
			// Bundle of concurrent crossings at xc: the level continues on
			// the slope-mirror of cur within the bundle (see package doc).
			next = mirrorInBundle(lines, cur, idx, js)
		}
		encur, lv := lines[cur], lines[next]
		v := Vertex{
			X:      xc,
			Y:      encur.Eval(xc),
			Enter:  cur,
			Leave:  next,
			Convex: encur.A < lv.A,
		}
		if !visit(v) {
			return start
		}
		cur = next
		x0 = xc
	}
	panic("arrangement: walk exceeded vertex budget (degenerate input)")
}

const negInf = -1.7976931348623157e308

// nextCrossing returns the smallest crossing x > x0 of line cur with any
// live line, together with the positions (into idx) of every line
// achieving exactly that x. The scan is parallelized across CPUs for
// large line sets.
func nextCrossing(slopes, inters []float64, idx []int, cur int, x0 float64) (float64, []int) {
	// Locate cur's coefficients.
	var ca, cb float64
	for j, id := range idx {
		if id == cur {
			ca, cb = slopes[j], inters[j]
			_ = j
			break
		}
	}

	type result struct {
		x  float64
		js []int
	}
	scan := func(lo, hi int) result {
		best := result{x: 0, js: nil}
		found := false
		for j := lo; j < hi; j++ {
			if idx[j] == cur {
				continue
			}
			da := ca - slopes[j]
			if da == 0 {
				continue // parallel
			}
			x := (inters[j] - cb) / da
			if x <= x0 {
				continue
			}
			if !found || x < best.x {
				best.x = x
				best.js = best.js[:0]
				best.js = append(best.js, j)
				found = true
			} else if x == best.x {
				best.js = append(best.js, j)
			}
		}
		if !found {
			return result{js: nil}
		}
		return best
	}

	n := len(idx)
	workers := runtime.GOMAXPROCS(0)
	if n < 8192 || workers <= 1 {
		r := scan(0, n)
		return r.x, r.js
	}
	if workers > 16 {
		workers = 16
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			results[w] = scan(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var best result
	found := false
	for _, r := range results {
		if r.js == nil {
			continue
		}
		if !found || r.x < best.x {
			best = r
			found = true
		} else if r.x == best.x {
			best.js = append(best.js, r.js...)
		}
	}
	if !found {
		return 0, nil
	}
	return best.x, best.js
}

// mirrorInBundle resolves a concurrent crossing: among the bundle lines
// (cur plus the lines at positions js), sorted by slope ascending, the
// level leaves on the line whose ascending-slope rank mirrors cur's.
func mirrorInBundle(lines []geom.Line2, cur int, idx []int, js []int) int {
	bundle := []int{cur}
	for _, j := range js {
		bundle = append(bundle, idx[j])
	}
	sort.Slice(bundle, func(a, b int) bool { return lines[bundle[a]].A < lines[bundle[b]].A })
	pos := 0
	for i, id := range bundle {
		if id == cur {
			pos = i
			break
		}
	}
	return bundle[len(bundle)-1-pos]
}

// Level is a fully materialized k-level: an x-monotone chain.
type Level struct {
	K        int
	Start    int // line carrying the level at x = -infinity
	Vertices []Vertex
}

// ComputeLevel materializes the k-level of the live subset of lines.
func ComputeLevel(lines []geom.Line2, live []int, k int) Level {
	lvl := Level{K: k}
	lvl.Start = Walk(lines, live, k, func(v Vertex) bool {
		lvl.Vertices = append(lvl.Vertices, v)
		return true
	})
	return lvl
}

// LineAt returns the index of the line carrying the level at x.
func (l Level) LineAt(x float64) int {
	i := sort.Search(len(l.Vertices), func(i int) bool { return l.Vertices[i].X > x })
	if i == 0 {
		return l.Start
	}
	return l.Vertices[i-1].Leave
}

// EvalAt returns the level's height at x.
func (l Level) EvalAt(lines []geom.Line2, x float64) float64 {
	return lines[l.LineAt(x)].Eval(x)
}
