package index

import (
	"linconstraint/internal/chan3d"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/halfspace2d"
	"linconstraint/internal/hull3d"
	"linconstraint/internal/partition"
)

// The static adapters wrap one frozen structure built over a point
// slice. A nil inner structure (zero points) answers every supported
// op with an empty result. Each family's scalar query method (Halfplane,
// Halfspace, Nearest, Conjunction) is a one-op Query: an operand that
// QueryInto rejects reports nothing.

// Planar adapts the §3 planar structure (Theorem 3.5).
type Planar struct {
	dev *eio.Device
	idx *halfspace2d.PointIndex // nil when built over zero points
}

// NewPlanar builds the §3 structure over points on dev.
func NewPlanar(dev *eio.Device, points []geom.Point2, seed int64) *Planar {
	p := &Planar{dev: dev}
	if len(points) > 0 {
		p.idx = halfspace2d.NewPoints(dev, points, halfspace2d.Options{Seed: seed})
	}
	return p
}

// Halfplane reports the positions of points with y <= a·x + b, sorted.
func (p *Planar) Halfplane(a, b float64) []int {
	ans, _ := p.Query(Query{Op: OpHalfplane, A: a, B: b})
	return ans.IDs
}

// Len returns the number of indexed points.
func (p *Planar) Len() int {
	if p.idx == nil {
		return 0
	}
	return len(p.idx.Points())
}

// Stats snapshots the device counters.
func (p *Planar) Stats() Stats { return devStats(p.dev) }

// ResetStats zeroes the counters and drops the cache.
func (p *Planar) ResetStats() { p.dev.ResetCounters() }

// Supports reports the ops the planar family serves.
func (p *Planar) Supports(op Op) bool { return op == OpHalfplane }

// Query dispatches the ops the planar family serves.
func (p *Planar) Query(q Query) (Answer, error) { return intoAnswer(p, q) }

// QueryInto dispatches q appending into ans; allocation-free on a
// warmed buffer (the §3 query path keeps its working sets in per-index
// scratch).
func (p *Planar) QueryInto(q Query, ans *Answer) error {
	if !p.Supports(q.Op) {
		return unsupported("planar", q.Op)
	}
	if err := CheckOperands(&q); err != nil {
		return err
	}
	if p.idx != nil {
		ans.IDs = p.idx.HalfplaneAppend(q.A, q.B, ans.IDs)
	}
	return nil
}

// Locality keys a halfplane by its slope A. The §3 query finds its
// relevant cluster through a B-tree keyed by the dual point's abscissa,
// which is A, so queries with close slopes read the same cluster blocks.
func (p *Planar) Locality(q Query) float64 { return q.A }

// Spatial3 adapts the §4 3D structure (Theorem 4.4).
type Spatial3 struct {
	dev *eio.Device
	idx *chan3d.PointIndex3 // nil when built over zero points
}

// NewSpatial3 builds the §4 structure over points on dev. win must
// cover the (a, b) coefficient range of future queries (the zero
// window selects the chan3d default).
func NewSpatial3(dev *eio.Device, points []geom.Point3, win hull3d.Window, seed int64) *Spatial3 {
	s := &Spatial3{dev: dev}
	if len(points) > 0 {
		s.idx = chan3d.NewPoints3(dev, points, chan3d.Options{Window: win, Seed: seed})
	}
	return s
}

// Halfspace reports the positions of points with z <= a·x + b·y + c,
// sorted.
func (s *Spatial3) Halfspace(a, b, c float64) []int {
	ans, _ := s.Query(Query{Op: OpHalfspace3, A: a, B: b, C: c})
	return ans.IDs
}

// Len returns the number of indexed points.
func (s *Spatial3) Len() int {
	if s.idx == nil {
		return 0
	}
	return len(s.idx.Points())
}

// Stats snapshots the device counters.
func (s *Spatial3) Stats() Stats { return devStats(s.dev) }

// ResetStats zeroes the counters and drops the cache.
func (s *Spatial3) ResetStats() { s.dev.ResetCounters() }

// Supports reports the ops the 3D family serves.
func (s *Spatial3) Supports(op Op) bool { return op == OpHalfspace3 }

// Query dispatches the ops the 3D family serves.
func (s *Spatial3) Query(q Query) (Answer, error) { return intoAnswer(s, q) }

// QueryInto dispatches q appending into ans.
func (s *Spatial3) QueryInto(q Query, ans *Answer) error {
	if !s.Supports(q.Op) {
		return unsupported("3d", q.Op)
	}
	if err := CheckOperands(&q); err != nil {
		return err
	}
	if s.idx != nil {
		ans.IDs = s.idx.HalfspaceAppend(q.A, q.B, q.C, ans.IDs)
	}
	return nil
}

// KNN adapts the Theorem 4.3 k-nearest-neighbor structure.
type KNN struct {
	dev *eio.Device
	idx *chan3d.KNN // nil when built over zero points
}

// NewKNN builds the k-NN structure over points on dev.
func NewKNN(dev *eio.Device, points []geom.Point2, seed int64) *KNN {
	k := &KNN{dev: dev}
	if len(points) > 0 {
		k.idx = chan3d.NewKNN(dev, points, chan3d.Options{Seed: seed})
	}
	return k
}

// Nearest returns the k nearest indexed points to q, closest first.
func (k *KNN) Nearest(kk int, q geom.Point2) []chan3d.Neighbor {
	ans, _ := k.Query(Query{Op: OpKNN, K: kk, Pt: q})
	return ans.Neighbors
}

// Len returns the number of indexed points.
func (k *KNN) Len() int {
	if k.idx == nil {
		return 0
	}
	return len(k.idx.Points())
}

// Stats snapshots the device counters.
func (k *KNN) Stats() Stats { return devStats(k.dev) }

// ResetStats zeroes the counters and drops the cache.
func (k *KNN) ResetStats() { k.dev.ResetCounters() }

// Supports reports the ops the k-NN family serves.
func (k *KNN) Supports(op Op) bool { return op == OpKNN }

// Query dispatches the ops the k-NN family serves.
func (k *KNN) Query(q Query) (Answer, error) { return intoAnswer(k, q) }

// QueryInto dispatches q appending into ans.
func (k *KNN) QueryInto(q Query, ans *Answer) error {
	if !k.Supports(q.Op) {
		return unsupported("knn", q.Op)
	}
	if err := CheckOperands(&q); err != nil {
		return err
	}
	if k.idx != nil {
		ans.Neighbors = k.idx.QueryAppend(q.K, q.Pt, ans.Neighbors)
	}
	return nil
}

// Partition adapts the §5 d-dimensional partition tree (Theorem 5.2).
type Partition struct {
	dev *eio.Device
	tr  *partition.Tree // nil when built over zero points
	// sq is QueryInto's reused simplex holder for conjunctions
	// (single-owner, like the index itself).
	sq geom.Simplex
}

// NewPartition builds the §5 structure over points on dev.
func NewPartition(dev *eio.Device, points []geom.PointD) *Partition {
	p := &Partition{dev: dev}
	if len(points) > 0 {
		p.tr = partition.New(dev, points, partition.Options{})
	}
	return p
}

// Halfspace reports the positions of points with x_d <= coef·(x,1), sorted.
func (p *Partition) Halfspace(coef []float64) []int {
	ans, _ := p.Query(Query{Op: OpHalfspaceD, Coef: coef})
	return ans.IDs
}

// Conjunction reports the positions of the points satisfying every
// constraint (a simplex or general convex-polytope query), sorted.
func (p *Partition) Conjunction(cs []Constraint) []int {
	ans, _ := p.Query(Query{Op: OpConjunction, Constraints: cs})
	return ans.IDs
}

// Len returns the number of indexed points.
func (p *Partition) Len() int {
	if p.tr == nil {
		return 0
	}
	return p.tr.Len()
}

// Stats snapshots the device counters.
func (p *Partition) Stats() Stats { return devStats(p.dev) }

// ResetStats zeroes the counters and drops the cache.
func (p *Partition) ResetStats() { p.dev.ResetCounters() }

// Supports reports the ops the partition family serves.
func (p *Partition) Supports(op Op) bool { return op == OpHalfspaceD || op == OpConjunction }

// Query dispatches the ops the partition family serves.
func (p *Partition) Query(q Query) (Answer, error) { return intoAnswer(p, q) }

// QueryInto dispatches q appending into ans. An operand whose
// coefficient count is not the tree's dimension is rejected.
func (p *Partition) QueryInto(q Query, ans *Answer) error {
	if p.tr != nil {
		if err := checkDim("partition", p.tr.Dim(), q); err != nil {
			return err
		}
	}
	if err := CheckOperands(&q); err != nil {
		return err
	}
	switch q.Op {
	case OpHalfspaceD:
		if p.tr != nil {
			ans.IDs = p.tr.HalfspaceAppend(geom.HyperplaneD{Coef: q.Coef}, ans.IDs)
		}
		return nil
	case OpConjunction:
		if p.tr != nil {
			p.sq = simplex(p.sq, q.Constraints)
			ans.IDs = p.tr.SimplexAppend(p.sq, ans.IDs)
		}
		return nil
	}
	return unsupported("partition", q.Op)
}

// intoAnswer adapts an adapter's QueryInto to the fresh-slices Query
// contract.
func intoAnswer(x Index, q Query) (Answer, error) {
	var ans Answer
	err := x.QueryInto(q, &ans)
	return ans, err
}

var (
	_ Index   = (*Planar)(nil)
	_ Index   = (*Spatial3)(nil)
	_ Index   = (*KNN)(nil)
	_ Index   = (*Partition)(nil)
	_ Ordered = (*Planar)(nil)
)
