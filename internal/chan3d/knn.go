package chan3d

import (
	"math"
	"slices"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/hull3d"
)

// KNN answers planar k-nearest-neighbor queries via the lifting map
// (Theorem 4.3): each point (a, b) becomes the plane
// z = a² + b² − 2a·x − 2b·y, whose height order along the vertical line
// at the query equals squared-distance order, so the k nearest neighbors
// are the k lowest lifted planes — a KLowest query on the §4 structure.
type KNN struct {
	idx    *Index
	points []geom.Point2
}

// NewKNN builds a k-nearest-neighbor index over points. The options'
// window must cover all query locations; if zero it is derived from the
// point set's bounding box padded by half its extent.
func NewKNN(dev *eio.Device, points []geom.Point2, opt Options) *KNN {
	planes := make([]geom.Plane3, len(points))
	for i, p := range points {
		planes[i] = geom.Lift(p)
	}
	if opt.Window == (hull3d.Window{}) && len(points) > 0 {
		w := hull3d.Window{XMin: math.Inf(1), XMax: math.Inf(-1), YMin: math.Inf(1), YMax: math.Inf(-1)}
		for _, p := range points {
			w.XMin = math.Min(w.XMin, p.X)
			w.XMax = math.Max(w.XMax, p.X)
			w.YMin = math.Min(w.YMin, p.Y)
			w.YMax = math.Max(w.YMax, p.Y)
		}
		if w.XMax == w.XMin {
			w.XMax++
		}
		if w.YMax == w.YMin {
			w.YMax++
		}
		opt.Window = w.Pad(0.5)
	}
	return &KNN{idx: New(dev, planes, opt), points: points}
}

// Neighbor is one k-NN result.
type Neighbor struct {
	ID    int     // index into the point set
	Dist2 float64 // squared Euclidean distance to the query
}

// Query returns the k nearest points to q, ordered by distance, in
// O(log_B n + k/B) expected I/Os (Theorem 4.3). The query must lie in the
// index window.
func (s *KNN) Query(k int, q geom.Point2) []Neighbor {
	return s.QueryAppend(k, q, nil)
}

// QueryAppend appends the k nearest points to q, ordered by distance,
// to out and returns the extended slice. On a warmed buffer a
// steady-state query allocates nothing: the candidate set lives in
// index scratch and only the final neighbors are copied out.
func (s *KNN) QueryAppend(k int, q geom.Point2, out []Neighbor) []Neighbor {
	low := s.idx.kLowest(k, q.X, q.Y)
	start := len(out)
	for _, l := range low {
		// z = dist² − |q|²; recover dist² exactly from the point.
		p := s.points[l.ID]
		dx, dy := p.X-q.X, p.Y-q.Y
		out = append(out, Neighbor{ID: int(l.ID), Dist2: dx*dx + dy*dy})
	}
	// Deterministic order — ties break by id — so the sharded engine's
	// k-way merge reproduces this ordering exactly.
	slices.SortFunc(out[start:], func(a, b Neighbor) int {
		switch {
		case a.Dist2 != b.Dist2:
			if a.Dist2 < b.Dist2 {
				return -1
			}
			return 1
		case a.ID != b.ID:
			if a.ID < b.ID {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}

// Points returns the indexed point set.
func (s *KNN) Points() []geom.Point2 { return s.points }

// PointIndex3 answers primal 3D halfspace reporting over a point set:
// report all points with z <= a·x + b·y + c. By Lemma 2.1 this equals
// reporting the dual planes passing on or below the dual point (a, b, c).
type PointIndex3 struct {
	idx    *Index
	points []geom.Point3
}

// NewPoints3 builds the §4 structure over a 3D point set. The options'
// window must cover the (a, b) coefficient range of future queries; if
// zero it defaults to [-16, 16]².
func NewPoints3(dev *eio.Device, points []geom.Point3, opt Options) *PointIndex3 {
	planes := make([]geom.Plane3, len(points))
	for i, p := range points {
		planes[i] = geom.DualOfPoint3(p)
	}
	if opt.Window == (hull3d.Window{}) {
		opt.Window = hull3d.Window{XMin: -16, XMax: 16, YMin: -16, YMax: 16}
	}
	return &PointIndex3{idx: New(dev, planes, opt), points: points}
}

// Halfspace reports the indices of all points on or below z = a·x+b·y+c.
func (pi *PointIndex3) Halfspace(a, b, c float64) []int {
	return pi.HalfspaceAppend(a, b, c, nil)
}

// HalfspaceAppend appends the indices of all points on or below
// z = a·x+b·y+c to out, ascending, and returns the extended slice.
func (pi *PointIndex3) HalfspaceAppend(a, b, c float64, out []int) []int {
	return pi.idx.BelowAppend(geom.Point3{X: a, Y: b, Z: c}, out)
}

// Points returns the indexed point set.
func (pi *PointIndex3) Points() []geom.Point3 { return pi.points }

// Index exposes the underlying dual-plane structure.
func (pi *PointIndex3) Index() *Index { return pi.idx }
