package arrangement

import (
	"linconstraint/internal/envelope"
	"linconstraint/internal/geom"
)

// WalkEW traverses the k-level exactly as Walk does, but finds each next
// vertex with the Edelsbrunner–Welzl two-envelope oracle (§2.3): the
// lines above the current walk point are kept in a dynamic lower
// envelope, the lines below in a dynamic upper envelope, and the next
// vertex is the earlier of the current line's first crossings with the
// two envelopes. This is the paper's own construction, with the
// Overmars–van Leeuwen structure [43] replaced by the square-root
// envelope of internal/envelope (DESIGN.md substitution 1).
//
// Walk and WalkEW visit identical vertex sequences on inputs in general
// position; TestWalkEWMatchesWalk asserts this.
func WalkEW(lines []geom.Line2, live []int, k int, visit func(Vertex) bool) int {
	if k < 0 || k >= len(live) {
		panic("arrangement: level index out of range")
	}
	order := OrderAtMinusInf(lines, live)
	cur := order[k]
	start := cur
	if visit == nil {
		return start
	}

	above := envelope.NewDynamic(lines, envelope.Lower) // lines above the walk point
	below := envelope.NewDynamic(lines, envelope.Upper) // lines below the walk point
	for i, id := range order {
		switch {
		case i < k:
			below.Activate(id)
		case i > k:
			above.Activate(id)
		}
	}

	x0 := negInf
	maxSteps := len(live)*(len(live)-1)/2 + 4
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
