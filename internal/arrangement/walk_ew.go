package arrangement

import "linconstraint/internal/envelope"

// WalkEW traverses the k-level exactly as Walk does, but finds each next
// vertex with the Edelsbrunner–Welzl two-envelope oracle (§2.3): the
// lines above the current walk point are kept in a dynamic lower
// envelope, the lines below in a dynamic upper envelope, and the next
// vertex is the earlier of the current line's first crossings with the
// two envelopes. This is the paper's own construction, with the
// Overmars–van Leeuwen structure [43] replaced by the square-root
// envelope of internal/envelope (DESIGN.md substitution 1).
//
// The walk's live lines are given as order, bottom-to-top at
// x = -infinity as OrderAtMinusInf(u, live) returns them; the two
// envelopes are bulk-loaded from it over u's slope order, so a walk
// sorts nothing.
//
// Walk and WalkEW visit identical vertex sequences on inputs in general
// position; TestWalkEWMatchesWalk asserts this.
func WalkEW(u *envelope.Universe, order []int, k int, visit func(Vertex) bool) int {
	if k < 0 || k >= len(order) {
		panic("arrangement: level index out of range")
	}
	cur := order[k]
	start := cur
	if visit == nil {
		return start
	}

	above := envelope.NewDynamic(u, envelope.Lower) // lines above the walk point
	below := envelope.NewDynamic(u, envelope.Upper) // lines below the walk point
	below.Load(order[:k])
	above.Load(order[k+1:])

	lines := u.Lines
	x0 := negInf
	maxSteps := len(order)*(len(order)-1)/2 + 4
	for step := 0; step < maxSteps; step++ {
		xa, ga, oka := above.FirstCrossing(lines[cur], x0)
		xb, gb, okb := below.FirstCrossing(lines[cur], x0)
		var xc float64
		var g int
		fromAbove := false
		switch {
		case !oka && !okb:
			return start
		case oka && (!okb || xa <= xb):
			xc, g, fromAbove = xa, ga, true
		default:
			xc, g = xb, gb
		}
		v := Vertex{
			X:      xc,
			Y:      lines[cur].Eval(xc),
			Enter:  cur,
			Leave:  g,
			Convex: lines[cur].A < lines[g].A,
		}
		if !visit(v) {
			return start
		}
		// The level switches to g; the old level line takes g's side.
		if fromAbove {
			above.Deactivate(g)
			above.Activate(cur)
		} else {
			below.Deactivate(g)
			below.Activate(cur)
		}
		cur = g
		x0 = xc
	}
	panic("arrangement: EW walk exceeded vertex budget (degenerate input)")
}
