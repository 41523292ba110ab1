package geom

// Box is an axis-aligned box in R^d, the cell shape used by our
// kd-partitions (each box is an intersection of 2d halfspaces, so it is a
// valid region for the partition-tree machinery of §5; see DESIGN.md
// substitution 4).
type Box struct {
	Min, Max PointD
}

// BoundingBox returns the smallest box containing all points. It panics
// if pts is empty.
func BoundingBox(pts []PointD) Box {
	if len(pts) == 0 {
		panic("geom: bounding box of empty set")
	}
	d := len(pts[0])
	b := Box{Min: append(PointD(nil), pts[0]...), Max: append(PointD(nil), pts[0]...)}
	for _, p := range pts[1:] {
		for i := 0; i < d; i++ {
			if p[i] < b.Min[i] {
				b.Min[i] = p[i]
			}
			if p[i] > b.Max[i] {
				b.Max[i] = p[i]
			}
		}
	}
	return b
}

// HalfspaceRange returns the extremes over the box of the residual
// f(p) = p_d − Σ coef_i·p_i − coef_{d-1}, whose sign places p below (f
// <= 0) or above (f > 0) hyperplane h. f is linear, so its extremes over
// a box are attained at corners and can be computed coordinatewise; the
// shard planner and RegionSide both classify boxes with them.
func (b Box) HalfspaceRange(h HyperplaneD) (lo, hi float64) {
	d := len(h.Coef)
	lo = b.Min[d-1] - h.Coef[d-1]
	hi = b.Max[d-1] - h.Coef[d-1]
	for i := 0; i < d-1; i++ {
		c := h.Coef[i]
		if c >= 0 {
			lo -= c * b.Max[i]
			hi -= c * b.Min[i]
		} else {
			lo -= c * b.Min[i]
			hi -= c * b.Max[i]
		}
	}
	return lo, hi
}

// RegionSide classifies a box against the lower halfspace of hyperplane h
// (the query region x_d <= h(x)): it returns -1 if the whole box is inside
// (at or below h), +1 if the whole box is strictly outside (above h), and
// 0 if h crosses the box.
func (b Box) RegionSide(h HyperplaneD) int {
	lo, hi := b.HalfspaceRange(h)
	switch {
	case hi <= 0:
		return -1
	case lo > 0:
		return 1
	default:
		return 0
	}
}

// MinDist2 returns the squared Euclidean distance from q to the box
// (zero when q is inside). The coordinatewise clamp uses the same
// subtract-square-sum shape as point-to-point distances, so for any
// point p in the box the computed point distance is at least the
// computed box distance even in floating point — the k-NN planner's
// cutoff relies on that monotonicity.
func (b Box) MinDist2(q PointD) float64 {
	var d2 float64
	for i := range b.Min {
		c := q[i]
		if c < b.Min[i] {
			c = b.Min[i]
		} else if c > b.Max[i] {
			c = b.Max[i]
		}
		dx := q[i] - c
		d2 += dx * dx
	}
	return d2
}

// Simplex is a convex query region given as an intersection of closed
// lower/upper halfspaces, each hyperplane paired with the side that is
// inside: Below[i] true means the inside is x_d <= h_i(x). The paper
// (§5 Remark i) defines a d-simplex as an intersection of d+1 halfspaces;
// Simplex admits any number, covering general convex polytope queries too.
type Simplex struct {
	Planes []HyperplaneD
	Below  []bool
}

// Contains reports whether p satisfies every constraint.
func (s Simplex) Contains(p PointD) bool {
	for i, h := range s.Planes {
		side := SideOfHyperplane(h, p)
		if s.Below[i] && side > 0 {
			return false
		}
		if !s.Below[i] && side < 0 {
			return false
		}
	}
	return true
}

// RegionSide classifies box b against the simplex: -1 if b is entirely
// inside, +1 if some single constraint excludes all of b, 0 otherwise
// (a conservative "crossing" verdict, which preserves correctness of the
// partition-tree query; see §5 Remark i).
func (s Simplex) RegionSide(b Box) int {
	inside := true
	for i, h := range s.Planes {
		side := b.RegionSide(h)
		if s.Below[i] {
			if side == 1 {
				return 1
			}
			if side != -1 {
				inside = false
			}
		} else {
			if side == -1 {
				// Box entirely strictly below h... RegionSide's -1 means
				// box is at-or-below; for an upper halfspace we must
				// exclude only boxes strictly below. Recompute strictness.
				if boxStrictlyBelow(b, h) {
					return 1
				}
				inside = false
			}
			if side != 1 && !boxAtOrAbove(b, h) {
				inside = false
			}
		}
	}
	if inside {
		return -1
	}
	return 0
}

// boxStrictlyBelow reports whether every point of b is strictly below h.
func boxStrictlyBelow(b Box, h HyperplaneD) bool {
	d := len(h.Coef)
	hi := b.Max[d-1] - h.Coef[d-1]
	for i := 0; i < d-1; i++ {
		c := h.Coef[i]
		if c >= 0 {
			hi -= c * b.Min[i]
		} else {
			hi -= c * b.Max[i]
		}
	}
	return hi < 0
}

// boxAtOrAbove reports whether every point of b is on or above h.
func boxAtOrAbove(b Box, h HyperplaneD) bool {
	d := len(h.Coef)
	lo := b.Min[d-1] - h.Coef[d-1]
	for i := 0; i < d-1; i++ {
		c := h.Coef[i]
		if c >= 0 {
			lo -= c * b.Max[i]
		} else {
			lo -= c * b.Min[i]
		}
	}
	return lo >= 0
}
