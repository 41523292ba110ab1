// Package envelope maintains dynamic lower/upper envelopes of a fixed
// universe of non-vertical lines under activation and deactivation,
// supporting the two queries the Edelsbrunner–Welzl level traversal
// (§2.3) asks of the Overmars–van Leeuwen structure [43]:
//
//   - the envelope's value/line at an abscissa, and
//   - the first crossing, to the right of an abscissa, of a query line
//     with the envelope — which for a walk point lying on the query line
//     strictly below (resp. above) every active line equals the first
//     crossing with *any* active line.
//
// The implementation is a slope-ordered square-root decomposition: the
// universe is split into O(√U) contiguous slope groups, each storing the
// static envelope of its active members (rebuilt in O(g) on every update
// within the group). A first-crossing query solves, per group, a binary
// search on the concave difference between the group envelope and the
// query line, so queries cost O(√U · log) and updates O(√U) — the same
// interface as [43] with different constants (DESIGN.md substitution 1
// discusses how this affects only construction cost, not query bounds).
//
// The slope order is a Universe, sorted once and shared read-only: a §3
// build sorts its lines once, and every envelope of every layer's walk
// reads that order. A walk starts by loading each envelope with Load,
// O(U) for the whole set, then takes O(√U · log) per step.
package envelope

import (
	"math"
	"slices"
	"sort"

	"linconstraint/internal/geom"
)

// Side selects which envelope a structure maintains.
type Side int

const (
	// Lower maintains the pointwise minimum of the active lines.
	Lower Side = iota
	// Upper maintains the pointwise maximum.
	Upper
)

// Universe is a fixed set of non-vertical lines together with its slope
// order, sorted once: every Dynamic over the universe, and every level
// walk of a §3 build, reads Order instead of sorting again.
type Universe struct {
	Lines []geom.Line2
	Order []int // line ids by slope ascending, ties by intercept ascending
	pos   []int // pos[id] is id's index in Order
}

// NewUniverse sorts lines by slope, ties by intercept.
func NewUniverse(lines []geom.Line2) *Universe {
	u := &Universe{Lines: lines, Order: make([]int, len(lines)), pos: make([]int, len(lines))}
	for i := range u.Order {
		u.Order[i] = i
	}
	slices.SortFunc(u.Order, func(a, b int) int {
		la, lb := lines[a], lines[b]
		switch {
		case la.A < lb.A || la.A == lb.A && la.B < lb.B:
			return -1
		case lb.A < la.A || la.A == lb.A && lb.B < la.B:
			return 1
		}
		return 0
	})
	for p, id := range u.Order {
		u.pos[id] = p
	}
	return u
}

// BySlope compares line ids by their place in the slope order, for
// slices.SortFunc.
func (u *Universe) BySlope(a, b int) int { return u.pos[a] - u.pos[b] }

// Dynamic is a dynamic envelope over a fixed universe of lines.
type Dynamic struct {
	side   Side
	lines  []geom.Line2
	order  []int // the universe's slope order, shared
	pos    []int // its inverse, shared
	active []bool
	groups []group
	gsize  int
	count  int
}

// group is one slope-contiguous block with its static envelope.
type group struct {
	lo, hi int // range [lo, hi) into order
	// Envelope, left to right: env[i] is the line on segment i,
	// breakX[i] the crossing between env[i] and env[i+1].
	env    []int
	breakX []float64
}

// NewDynamic builds a structure over the universe with no active lines.
func NewDynamic(u *Universe, side Side) *Dynamic {
	n := len(u.Lines)
	d := &Dynamic{side: side, lines: u.Lines, order: u.Order, pos: u.pos, active: make([]bool, n)}
	d.gsize = 16
	for d.gsize*d.gsize < n {
		d.gsize *= 2
	}
	for lo := 0; lo < n; lo += d.gsize {
		d.groups = append(d.groups, group{lo: lo, hi: min(lo+d.gsize, n)})
	}
	return d
}

// Len returns the number of active lines.
func (d *Dynamic) Len() int { return d.count }

// Activate inserts universe line id.
func (d *Dynamic) Activate(id int) {
	if d.active[id] {
		return
	}
	d.active[id] = true
	d.count++
	d.rebuild(d.pos[id] / d.gsize)
}

// Load activates every line of ids in one pass: it marks them, then
// rebuilds each group that gained a line once. That is O(U) however many
// lines it loads, where one Activate per line rebuilds a group each time.
func (d *Dynamic) Load(ids []int) {
	dirty := make([]bool, len(d.groups))
	for _, id := range ids {
		if !d.active[id] {
			d.active[id] = true
			d.count++
			dirty[d.pos[id]/d.gsize] = true
		}
	}
	for gi, ok := range dirty {
		if ok {
			d.rebuild(gi)
		}
	}
}

// Deactivate removes universe line id.
func (d *Dynamic) Deactivate(id int) {
	if !d.active[id] {
		return
	}
	d.active[id] = false
	d.count--
	d.rebuild(d.pos[id] / d.gsize)
}

// rebuild recomputes group g's envelope from its active lines.
func (d *Dynamic) rebuild(gi int) {
	g := &d.groups[gi]
	g.env = g.env[:0]
	g.breakX = g.breakX[:0]
	// Lines in slope order; for a LOWER envelope the leftmost segment has
	// the largest slope, so feed slopes descending; for an UPPER envelope
	// ascending.
	push := func(id int) {
		l := d.lines[id]
		for len(g.env) > 0 {
			top := d.lines[g.env[len(g.env)-1]]
			if top.A == l.A {
				// Parallel: keep the better one.
				if (d.side == Lower && l.B < top.B) || (d.side == Upper && l.B > top.B) {
					g.env = g.env[:len(g.env)-1]
					if len(g.breakX) > 0 {
						g.breakX = g.breakX[:len(g.breakX)-1]
					}
					continue
				}
				return
			}
			x, _ := geom.CrossX(top, l)
			if len(g.breakX) == 0 || x > g.breakX[len(g.breakX)-1] {
				g.env = append(g.env, id)
				g.breakX = append(g.breakX, 0)
				g.breakX[len(g.breakX)-1] = x
				return
			}
			// Top segment is dominated: pop it.
			g.env = g.env[:len(g.env)-1]
			g.breakX = g.breakX[:len(g.breakX)-1]
		}
		g.env = append(g.env, id)
	}
	if d.side == Lower {
		for p := g.hi - 1; p >= g.lo; p-- {
			if id := d.order[p]; d.active[id] {
				push(id)
			}
		}
	} else {
		for p := g.lo; p < g.hi; p++ {
			if id := d.order[p]; d.active[id] {
				push(id)
			}
		}
	}
}

// fix the breakX bookkeeping: breakX[i] separates env[i] and env[i+1],
// so it must have length len(env)-1. The push above appends a breakpoint
// before appending the line; normalize on read.

// segAt returns the envelope segment index covering x in group g, or -1
// if the group has no active lines.
func (g *group) segAt(x float64) int {
	if len(g.env) == 0 {
		return -1
	}
	return sort.SearchFloat64s(g.breakX[:len(g.env)-1], x)
}

// EvalAt returns the envelope's line id and value at x, with ok=false if
// no line is active.
func (d *Dynamic) EvalAt(x float64) (int, float64, bool) {
	best := -1
	var bestV float64
	for gi := range d.groups {
		g := &d.groups[gi]
		si := g.segAt(x)
		if si < 0 {
			continue
		}
		id := g.env[si]
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

// FirstCrossing returns the smallest x > x0 at which the line l crosses
// the envelope, together with the envelope line involved. For the
// intended use l lies strictly on the far side of every active line at
// x0 (below them for Lower, above for Upper), so this is the first
// crossing of l with any active line. ok is false if no crossing exists.
func (d *Dynamic) FirstCrossing(l geom.Line2, x0 float64) (float64, int, bool) {
	bestX := math.Inf(1)
	bestID := -1
	for gi := range d.groups {
		g := &d.groups[gi]
		if x, id, ok := d.firstCrossingGroup(g, l, x0); ok && x < bestX {
			bestX, bestID = x, id
		}
	}
	if bestID < 0 {
		return 0, 0, false
	}
	return bestX, bestID, true
}

// firstCrossingGroup finds the first crossing within one group by binary
// search on the sign of f(x) = env(x) − l(x), which is concave for a
// lower envelope (and convex mirrored for an upper one), hence
// single-crossing to the right of any point where it is positive.
func (d *Dynamic) firstCrossingGroup(g *group, l geom.Line2, x0 float64) (float64, int, bool) {
	if len(g.env) == 0 {
		return 0, 0, false
	}
	// f(x) = side-sign · (env(x) − l(x)); f(x0) >= 0 by the caller's
	// invariant; we want the smallest x > x0 with f(x) <= 0.
	sgn := 1.0
	if d.side == Upper {
		sgn = -1
	}
	f := func(id int, x float64) float64 { return sgn * (d.lines[id].Eval(x) - l.Eval(x)) }

	// Locate the segment containing x0 and verify the invariant there.
	start := g.segAt(x0)
	nSeg := len(g.env)
	breaks := g.breakX[:nSeg-1]
	// crossOnSeg solves f = 0 on segment si within (lo, hi]; returns
	// +Inf if the segment's line does not cross l there.
	crossOnSeg := func(si int, lo float64) (float64, bool) {
		id := g.env[si]
		x, ok := geom.CrossX(d.lines[id], l)
		if !ok || x <= lo {
			return 0, false
		}
		// The crossing must lie within the segment's x-range.
		if si < nSeg-1 && x > breaks[si] {
			return 0, false
		}
		if si > 0 && x < breaks[si-1] {
			return 0, false
		}
		return x, true
	}
	if x, ok := crossOnSeg(start, x0); ok {
		return x, g.env[start], true
	}
	// Binary search for the first segment at index > start whose START
	// value is <= 0; f evaluated at segment starts is monotone... it is
	// not in general, but concavity of f gives: once f goes negative it
	// stays negative, so the segment starts have signs +…+−…− to the
	// right of x0. Search that boundary.
	lo, hi := start+1, nSeg-1
	ans := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		xs := breaks[mid-1] // start of segment mid
		if f(g.env[mid], xs) <= 0 {
			ans = mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if ans < 0 {
		// f is still positive at every later segment start; the only
		// remaining possibility is a crossing inside the unbounded last
		// segment.
		if start < nSeg-1 {
			from := x0
			if breaks[nSeg-2] > from {
				from = breaks[nSeg-2]
			}
			if x, ok := crossOnSeg(nSeg-1, from); ok {
				return x, g.env[nSeg-1], true
			}
		}
		return 0, 0, false
	}
	// The crossing is on segment ans-1 (f positive at its start, negative
	// at its end) or exactly at its start breakpoint.
	if ans-1 >= 0 {
		si := ans - 1
		from := x0
		if si > 0 && breaks[si-1] > from {
			from = breaks[si-1]
		}
		if x, ok := crossOnSeg(si, from); ok {
			return x, g.env[si], true
		}
	}
	// Crossing exactly at the breakpoint: attribute it to segment ans.
	return breaks[ans-1], g.env[ans], true
}
