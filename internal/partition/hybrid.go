package partition

import (
	"math"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/hull3d"
)

// HybridOptions configure the Theorem 6.1 tradeoff structure.
type HybridOptions struct {
	Options
	// A is the exponent a > 1: the partition-tree recursion stops at
	// subproblems of at most B^A points, which are then indexed by the §4
	// structure. Default 1.5.
	A float64
	// Window is the dual query window handed to the §4 leaf structures:
	// it must cover the (a, b) coefficients of future query planes.
	Window hull3d.Window
	// Copies and Seed are passed through to the leaf structures.
	Copies int
	Seed   int64
}

// Hybrid is the Theorem 6.1 structure for 3-dimensional halfspace
// reporting over points: the §5 tree with leaves of up to B^a points,
// each also indexed by the §4 structure over its points' dual planes,
// using O(n·log2 B) blocks and answering queries in
// O((n/B^(a-1))^(2/3+ε) + t) expected I/Os. A crossed leaf asks its §4
// structure; a leaf inside the query is reported from the tree's own id
// blocks.
type Hybrid struct {
	t      *Tree
	leaves map[*node]hybridLeaf
	below  []int // query scratch: one §4 answer, as positions in its leaf
}

// hybridLeaf is the §4 structure of one tree leaf: plane j of idx is the
// dual of the leaf's j-th point, whose id is ids[j].
type hybridLeaf struct {
	idx *chan3d.Index
	ids []int32
}

// NewHybrid builds the structure over 3D points on dev.
func NewHybrid(dev *eio.Device, points []geom.Point3, opt HybridOptions) *Hybrid {
	if opt.A <= 1 {
		opt.A = 1.5
	}
	if opt.Window == (hull3d.Window{}) {
		opt.Window = hull3d.Window{XMin: -16, XMax: 16, YMin: -16, YMax: 16}
	}
	pd := make([]geom.PointD, len(points))
	for i, p := range points {
		pd[i] = geom.PointDOf3(p)
	}
	tOpt := opt.Options
	tOpt.LeafSize = max(int(math.Pow(float64(dev.B()), opt.A)), dev.B())
	h := &Hybrid{t: New(dev, pd, tOpt), leaves: make(map[*node]hybridLeaf)}
	if h.t.root != nil {
		h.buildLeaves(h.t.root, points, opt)
	}
	return h
}

// buildLeaves reads each leaf's id blocks below v and builds the §4
// structure over the duals of its points (Lemma 2.1).
func (h *Hybrid) buildLeaves(v *node, points []geom.Point3, opt HybridOptions) {
	if v.leaf == nil {
		for _, c := range v.children {
			h.buildLeaves(c, points, opt)
		}
		return
	}
	ids := make([]int32, 0, v.leaf.Len())
	for k, nb := 0, v.leaf.Blocks(); k < nb; k++ {
		ids = append(ids, v.leaf.Block(k)...)
	}
	planes := make([]geom.Plane3, len(ids))
	for j, id := range ids {
		planes[j] = geom.DualOfPoint3(points[id])
	}
	h.leaves[v] = hybridLeaf{ids: ids, idx: chan3d.New(h.t.dev, planes, chan3d.Options{
		Window: opt.Window, Copies: opt.Copies, Seed: opt.Seed + int64(len(ids)),
	})}
}

// Halfspace reports the ids of all points on or below z = a·x + b·y + c,
// ascending.
func (h *Hybrid) Halfspace(a, b, c float64) []int {
	if h.t.root == nil {
		return nil
	}
	h.query(h.t.root, geom.HyperplaneD{Coef: []float64{a, b, c}})
	return h.t.ans.AppendSortedAndClear(nil)
}

// query walks the tree like Tree.query, with §4 leaves.
func (h *Hybrid) query(v *node, hp geom.HyperplaneD) {
	if v.leaf != nil {
		// §4 leaf: report dual planes below the dual point (Lemma 2.1).
		l := h.leaves[v]
		h.below = l.idx.BelowAppend(geom.Point3{X: hp.Coef[0], Y: hp.Coef[1], Z: hp.Coef[2]}, h.below[:0])
		for _, j := range h.below {
			h.t.ans.Add(l.ids[j])
		}
		return
	}
	h.t.readNode(v)
	for _, c := range v.children {
		switch c.box.RegionSide(hp) {
		case -1:
			h.t.reportSubtree(c)
		case 1:
		default:
			h.query(c, hp)
		}
	}
}

// Len returns the number of indexed points.
func (h *Hybrid) Len() int { return h.t.Len() }
