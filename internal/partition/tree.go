// Package partition implements the paper's linear-size d-dimensional
// structures: the partition tree of §5 (Theorem 5.2) answering halfspace
// and simplex reporting queries in O(n^(1-1/d)+ε + t) I/Os with O(n)
// blocks, and the hybrid space/query tradeoff of Theorem 6.1, the same
// tree with leaves of B^a points each finished by the §4 structure.
//
// Matoušek's simplicial partitions (Theorems 5.1 and 6.2) are replaced by
// balanced kd-partitions whose cells are boxes: a hyperplane crosses at
// most O(r^(1-1/d)) cells of a balanced kd-partition into r boxes, which
// is the crossing property Theorem 5.2's recurrence needs (DESIGN.md
// substitution 4; experiment E7 measures the constant). Shallow planes
// cross 6.5–11.4 of r = 64–1 024 kd cells (E8), far below the 4·log2(r)
// at which §6's shallow tree would switch to a secondary tree, so that
// tree would read exactly what this one reads (E4) and is not built.
package partition

import (
	"math"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/idset"
)

// Options configure construction.
type Options struct {
	// C scales the node degree r_v = min(C·B, 2·n_v); it plays the role of
	// the constant c in §5. Default 1.
	C int
	// LeafSize is the maximum points per leaf; default B.
	LeafSize int
	// Degree, when positive, forces every internal node's partition size
	// r_v (used by the crossing-number experiments to sweep r).
	Degree int
	// SharePoints makes New re-point every points[i] at the tree's own
	// leaf copy of its coordinates (equal values), so a caller reading a
	// reported point touches memory the query's leaf scan has just read,
	// not its own scattered allocations. The caller must not modify the
	// points afterwards.
	SharePoints bool
}

// ptRec is a point record as the build partitions it.
type ptRec struct {
	ID int32
	P  geom.PointD
}

type node struct {
	blk      eio.BlockID
	nblocks  int
	box      geom.Box
	children []*node
	// A leaf is one flat block: the ids, B per block on the device, and
	// from t.flat[at] on the same records' coordinates record-major
	// (coordinate i of the record with id leaf[j] is flat[at+j·d+i]),
	// followed by amax, the per-axis max |coordinate| over the leaf (NaN
	// or +Inf if any coordinate is), which bounds scanLeaf's filter.
	leaf *eio.Array[int32]
	at   int
}

// Tree is the §5 partition tree over a point set in R^d.
type Tree struct {
	dev    *eio.Device
	d      int
	opt    Options
	root   *node
	points []geom.PointD

	// Query scratch (a Tree is single-owner, like its Device): ans is
	// the answer set over stored ids, drained in id order at the end of
	// each query; halfPlane backs the one-constraint simplex
	// HalfspaceAppend queries with, so a halfspace query allocates
	// nothing.
	ans       idset.Set
	halfPlane [1]geom.HyperplaneD

	// flat holds every leaf's coordinates and amax (see node.at), so a
	// leaf costs the device array's one allocation, as a ptRec leaf did.
	flat []float64
}

// belowOnly is the side vector of a one-constraint lower halfspace
// (read-only).
var belowOnly = []bool{true}

// New builds a partition tree over points (all of dimension d) on dev.
func New(dev *eio.Device, points []geom.PointD, opt Options) *Tree {
	if opt.C <= 0 {
		opt.C = 1
	}
	if opt.LeafSize <= 0 {
		opt.LeafSize = dev.B()
	}
	t := &Tree{dev: dev, opt: opt, points: points, ans: idset.New(len(points))}
	if len(points) == 0 {
		return t
	}
	t.d = len(points[0])
	recs := make([]ptRec, len(points))
	for i, p := range points {
		recs[i] = ptRec{ID: int32(i), P: p}
	}
	// Room for the coordinates and the amax of about 2n/LeafSize leaves
	// (a leaf is at least half full unless the input is tiny); append
	// grows it past that, and leaves address it by offset.
	t.flat = make([]float64, 0, (len(points)+2*len(points)/opt.LeafSize+2)*t.d)
	t.root = t.build(recs, geom.BoundingBox(points), 0)
	return t
}

// build constructs the subtree for recs within box.
func (t *Tree) build(recs []ptRec, box geom.Box, axis int) *node {
	v := &node{box: box}
	if len(recs) <= t.opt.LeafSize {
		t.buildLeaf(v, recs)
		return v
	}
	// Degree r_v = min(C·B, 2·n_v) (§5), realized as a balanced kd split
	// of depth ceil(log2 r_v).
	nv := t.dev.Blocks(len(recs))
	rv := t.opt.C * t.dev.B()
	if 2*nv < rv {
		rv = 2 * nv
	}
	if t.opt.Degree > 0 {
		rv = t.opt.Degree
		if rv > len(recs)/2 {
			rv = len(recs) / 2
		}
	}
	if rv < 2 {
		rv = 2
	}
	// Do not overshoot the leaf size: splitting into more cells than
	// needed to reach it makes leaves smaller than intended (this matters
	// for the B^a leaves of the Theorem 6.1 hybrid).
	if want := (len(recs) + t.opt.LeafSize - 1) / t.opt.LeafSize; want >= 2 && want < rv {
		rv = want
	}
	depth := 0
	for 1<<depth < rv {
		depth++
	}
	cells := t.kdSplit(recs, box, axis, depth)
	for _, c := range cells {
		if len(c.recs) == 0 {
			continue
		}
		v.children = append(v.children, t.build(c.recs, c.box, (axis+depth)%t.d))
	}
	// Node storage: one child descriptor of O(d) words per child.
	words := len(v.children) * (2*t.d + 2)
	v.nblocks = t.dev.Blocks(words)
	if v.nblocks < 1 {
		v.nblocks = 1
	}
	v.blk = t.dev.Alloc(v.nblocks)
	for i := 0; i < v.nblocks; i++ {
		t.dev.Write(v.blk + eio.BlockID(i))
	}
	return v
}

// buildLeaf lays out v's records as one flat leaf block (see node).
// Leaf blocks are owned by the id array, so v.nblocks stays 0.
func (t *Tree) buildLeaf(v *node, recs []ptRec) {
	d := t.d
	var scratch [256]int32 // ids of a leaf of up to 256 records stay off the heap; NewArray copies them
	ids := scratch[:0]
	v.at = len(t.flat)
	t.flat = append(t.flat, make([]float64, (len(recs)+1)*d)...)
	xs, amax := t.flat[v.at:v.at+len(recs)*d], t.leafAmax(v, len(recs))
	for j, r := range recs {
		ids = append(ids, r.ID)
		if t.opt.SharePoints {
			t.points[r.ID] = xs[j*d : (j+1)*d : (j+1)*d]
		}
		for i, c := range r.P[:d] {
			xs[j*d+i] = c
			// NaN is sticky: nothing compares greater than it.
			if a := math.Abs(c); a > amax[i] || a != a {
				amax[i] = a
			}
		}
	}
	v.leaf = eio.NewArray(t.dev, ids)
}

// leafAmax returns the amax of leaf v, which holds n records.
func (t *Tree) leafAmax(v *node, n int) []float64 {
	at := v.at + n*t.d
	return t.flat[at : at+t.d : at+t.d]
}

type cell struct {
	recs []ptRec
	box  geom.Box
}

// kdSplit recursively halves recs at coordinate medians, cycling axes,
// producing up to 2^depth cells that partition box.
func (t *Tree) kdSplit(recs []ptRec, box geom.Box, axis, depth int) []cell {
	if depth == 0 || len(recs) <= 1 {
		return []cell{{recs: recs, box: box}}
	}
	ax := axis % t.d
	mid := len(recs) / 2
	nthElement(recs, mid, ax)
	split := recs[mid].P[ax]
	lbox, rbox := box, box
	lbox.Max = append(geom.PointD(nil), box.Max...)
	rbox.Min = append(geom.PointD(nil), box.Min...)
	lbox.Max[ax] = split
	rbox.Min[ax] = split
	out := t.kdSplit(recs[:mid], lbox, axis+1, depth-1)
	return append(out, t.kdSplit(recs[mid:], rbox, axis+1, depth-1)...)
}

// nthElement partially sorts recs so recs[k] is the k-th smallest by
// coordinate ax (quickselect with median-of-three pivoting).
func nthElement(recs []ptRec, k, ax int) {
	lo, hi := 0, len(recs)-1
	for lo < hi {
		// Median-of-three pivot.
		m := (lo + hi) / 2
		if recs[m].P[ax] < recs[lo].P[ax] {
			recs[m], recs[lo] = recs[lo], recs[m]
		}
		if recs[hi].P[ax] < recs[lo].P[ax] {
			recs[hi], recs[lo] = recs[lo], recs[hi]
		}
		if recs[hi].P[ax] < recs[m].P[ax] {
			recs[hi], recs[m] = recs[m], recs[hi]
		}
		pivot := recs[m].P[ax]
		i, j := lo, hi
		for i <= j {
			for recs[i].P[ax] < pivot {
				i++
			}
			for recs[j].P[ax] > pivot {
				j--
			}
			if i <= j {
				recs[i], recs[j] = recs[j], recs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.points) }

// Dim returns the dimension.
func (t *Tree) Dim() int { return t.d }

// Halfspace reports the ids of all points on or below the hyperplane h
// (x_d <= h(x)), ascending, in O(n^(1-1/d)+ε + t) I/Os (Theorem 5.2).
func (t *Tree) Halfspace(h geom.HyperplaneD) []int {
	return t.HalfspaceAppend(h, nil)
}

// HalfspaceAppend appends the ids of all points on or below h to out,
// ascending, and returns the extended slice: a halfspace is the
// one-constraint case of SimplexAppend. On a warmed buffer a
// steady-state query allocates nothing (h's coefficient slice is
// borrowed for the duration of the call).
func (t *Tree) HalfspaceAppend(h geom.HyperplaneD, out []int) []int {
	t.halfPlane[0] = h
	out = t.SimplexAppend(geom.Simplex{Planes: t.halfPlane[:], Below: belowOnly}, out)
	t.halfPlane[0] = geom.HyperplaneD{} // drop the borrowed slice
	return out
}

// Simplex reports the ids of all points inside the simplex (or general
// convex polytope) s, ascending (§5 Remark i).
func (t *Tree) Simplex(s geom.Simplex) []int {
	return t.SimplexAppend(s, nil)
}

// SimplexAppend appends the ids of all points inside s to out,
// ascending, and returns the extended slice. Leaves are scanned a block
// at a time into the answer set, which is drained in id order — O(points
// scanned + t) CPU, no comparison sort.
func (t *Tree) SimplexAppend(s geom.Simplex, out []int) []int {
	if t.root == nil {
		return out
	}
	t.query(t.root, &s)
	return t.ans.AppendSortedAndClear(out)
}

// query recursively classifies cells against s: inside → report subtree,
// outside → skip, crossing → recurse / filter at leaves.
func (t *Tree) query(v *node, s *geom.Simplex) {
	if v.leaf != nil {
		t.scanLeaf(v, s)
		return
	}
	t.readNode(v)
	for _, c := range v.children {
		switch s.RegionSide(c.box) {
		case -1:
			t.reportSubtree(c)
		case 1:
			// skip
		default:
			t.query(c, s)
		}
	}
}

// maxLeafPlanes is the most constraints scanLeaf's filter hoists: the
// engine issues one (a halfspace) or two (a slab).
const maxLeafPlanes = 4

// exactHook, when set (by tests), sees every record scanLeaf's filter
// sends to the exact path; returning true reports the record outside
// without asking the exact predicate.
var exactHook func(p geom.PointD) bool

// leafExact is scanLeaf's exact path.
func leafExact(s *geom.Simplex, p geom.PointD) bool {
	if exactHook != nil && exactHook(p) {
		return false
	}
	return s.Contains(p)
}

// scanLeaf adds every record of leaf v inside s to the answer set,
// reading v's blocks in order. For d = 3 (the engine's dimension) and
// at most maxLeafPlanes constraints it filters: each constraint's
// coefficients are hoisted with its leaf bound,
// geom.SideOfHyperplaneBound over amax, and det is evaluated in
// SideOfHyperplane's own order, so a det beyond ±bound has the sign
// SideOfHyperplane would return and decides the record without it;
// flip is -1 for an upper halfspace (negation is exact). Every
// constraint is tested, without an early exit. A record that no
// constraint excludes and some constraint leaves undecided (NaN det
// included) takes the exact s.Contains. Any other query — another
// dimension, or more constraints — asks s.Contains of every record.
func (t *Tree) scanLeaf(v *node, s *geom.Simplex) {
	d, k, n := t.d, len(s.Planes), v.leaf.Len()
	flat := t.flat[v.at : v.at+n*d]
	b := t.dev.B()
	if d != 3 || k > maxLeafPlanes {
		for blk, nb := 0, v.leaf.Blocks(); blk < nb; blk++ {
			xs := flat[blk*b*d:]
			for j, id := range v.leaf.Block(blk) {
				if s.Contains(xs[j*d : (j+1)*d : (j+1)*d]) {
					t.ans.Add(id)
				}
			}
		}
		return
	}
	amax := t.leafAmax(v, n)
	var a0, a1, a2, lo, hi, flip [maxLeafPlanes]float64
	for c, h := range s.Planes {
		a0[c], a1[c], a2[c] = h.Coef[0], h.Coef[1], h.Coef[2]
		hi[c] = geom.SideOfHyperplaneBound(h, amax)
		lo[c], flip[c] = -hi[c], 1
		if !s.Below[c] {
			flip[c] = -1
		}
	}
	for blk, nb := 0, v.leaf.Blocks(); blk < nb; blk++ {
		xs := flat[blk*b*3:]
		for j, id := range v.leaf.Block(blk) {
			p := xs[j*3 : j*3+3 : j*3+3]
			x, y, z := p[0], p[1], p[2]
			in, out := 0, 0
			for c := 0; c < k; c++ {
				det := z - a2[c]
				det -= a0[c] * x
				det -= a1[c] * y
				det *= flip[c]
				in += b2i(det < lo[c])
				out += b2i(det > hi[c])
			}
			if out == 0 && (in == k || leafExact(s, p)) {
				t.ans.Add(id)
			}
		}
	}
}

// b2i is 1 for true: the filter counts verdicts without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// reportSubtree adds every point below v to the answer set; cost
// O(count/B) I/Os because leaves hold Θ(B) points and internal nodes
// have degree ≥ 2.
func (t *Tree) reportSubtree(v *node) {
	if v.leaf != nil {
		for k, nb := 0, v.leaf.Blocks(); k < nb; k++ {
			for _, id := range v.leaf.Block(k) {
				t.ans.Add(id)
			}
		}
		return
	}
	t.readNode(v)
	for _, c := range v.children {
		t.reportSubtree(c)
	}
}

func (t *Tree) readNode(v *node) {
	for i := 0; i < v.nblocks; i++ {
		t.dev.Read(v.blk + eio.BlockID(i))
	}
}

// RootCells returns the boxes of the root partition, for crossing-number
// experiments (E7/E8).
func (t *Tree) RootCells() []geom.Box {
	if t.root == nil || t.root.leaf != nil {
		return nil
	}
	boxes := make([]geom.Box, len(t.root.children))
	for i, c := range t.root.children {
		boxes[i] = c.box
	}
	return boxes
}

// CrossingNumber counts how many root cells the hyperplane h crosses —
// the quantity Theorem 5.1 bounds by α·r^(1-1/d).
func (t *Tree) CrossingNumber(h geom.HyperplaneD) int {
	cnt := 0
	for _, b := range t.RootCells() {
		if b.RegionSide(h) == 0 {
			cnt++
		}
	}
	return cnt
}
