// Package halfspace2d implements the paper's first main result (§3,
// Theorem 3.5): an external-memory data structure for two-dimensional
// halfspace range reporting that uses O(n) blocks and answers a query
// with O(log_B n + t) I/Os in the worst case — the first linear-space
// structure with an optimal worst-case bound.
//
// The structure works in the dual (§2.1): the input points become lines,
// and a query "report points below line h" becomes "report lines below
// the dual point q = h*". The construction (§3.2) partitions the line set
// L into disjoint layers L_1, …, L_m: layer i draws a random level
// λ_i ∈ [β, 2β] with β = B·ceil(log_B n), walks the λ_i-level of the
// remaining lines H_i, compresses it into the greedy 3λ_i-clustering Γ_i
// (Lemma 3.2), and peels off L_i = the union of Γ_i's clusters. Each
// clustering stores its clusters slope-sorted in blocked arrays plus a
// B-tree over its boundary x-coordinates.
//
// A query (§3.3) visits layers in order. In layer i it locates the
// relevant cluster with O(log_B n) I/Os, scans it (O(λ_i/B) = O(log_B n)
// I/Os); if fewer than λ_i of its lines lie below q, Lemma 3.1 guarantees
// the cluster contains every remaining answer, so the query reports and
// stops. Otherwise it expands to neighboring clusters under the Lemma 3.4
// stopping rule, reports all of L_i's answers, and proceeds to layer
// i+1. Every layer visited before the last contributes ≥ λ_i ≥ B·log_B n
// reported lines, which pays for its O(log_B n) overhead, giving
// O(log_B n + t) total.
package halfspace2d

import (
	"math/rand"

	"linconstraint/internal/arrangement"
	"linconstraint/internal/btree"
	"linconstraint/internal/cluster"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/idset"
)

// Options configure construction.
type Options struct {
	Beta int   // level scale β; 0 means B·ceil(log_B n) as in the paper
	Seed int64 // RNG seed for the random levels λ_i
	// Walker selects the level-walk oracle used during construction;
	// nil means arrangement.WalkEW (the Edelsbrunner–Welzl traversal on
	// dynamic envelopes, §2.3). arrangement.Walk is the parallel-scan
	// alternative; both produce identical structures.
	Walker arrangement.WalkFunc
}

// Index is the §3 structure over a set of lines (duals of the input
// points). Build with New; query with Below.
//
// An Index is single-owner, like its Device: callers serialize access
// (the sharded engine locks a shard before querying its index). That
// lets the query path keep per-index scratch instead of allocating per
// query.
type Index struct {
	dev    *eio.Device
	lines  []geom.Line2
	beta   int
	phases []phase

	// Query scratch, so a steady-state query performs zero heap
	// allocations. ans collects the lines found below q: the clusters
	// of a layer share lines, so it deduplicates, and draining it yields
	// the answer ascending. above[id] == aboveEpoch marks a line
	// counted above q in the current expansion direction; the Lemma 3.4
	// stopping rule restarts per direction, so the stamp is bumped per
	// direction and the set resets in O(1).
	ans        idset.Set
	above      []uint32
	aboveEpoch uint32
}

// rec is one cluster record: a line id with its coefficients inline, so
// that a cluster scan is self-contained in the blocks it reads.
type rec struct {
	ID   int32
	Line geom.Line2
}

// phase is one layer (L_i, Γ_i): the clustering's blocked clusters plus
// the boundary B-tree T_i.
type phase struct {
	lambda   int
	clusters []*eio.Array[rec]
	bounds   *btree.Tree[int32] // boundary x -> index of cluster right of it
	single   bool               // final layer stored as one cluster
}

// New builds the structure over lines on dev. The paper's construction
// uses the Edelsbrunner–Welzl walk per layer; see DESIGN.md substitution 1
// for how construction cost is accounted.
func New(dev *eio.Device, lines []geom.Line2, opt Options) *Index {
	idx := &Index{dev: dev, lines: lines}
	idx.ans = idset.New(len(lines))
	idx.above = make([]uint32, len(lines))
	b := dev.B()
	n := dev.Blocks(len(lines))
	idx.beta = opt.Beta
	if idx.beta <= 0 {
		idx.beta = b * ceilLogB(n, b)
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	walker := opt.Walker
	if walker == nil {
		walker = arrangement.WalkEW
	}

	live := make([]int, len(lines))
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		lambda := idx.beta + rng.Intn(idx.beta+1) // uniform in [β, 2β]
		if lambda >= len(live) {
			// Too few lines to define a λ-level: final single-cluster layer.
			cl := cluster.Single(lines, live)
			idx.phases = append(idx.phases, idx.storePhase(cl, lambda, true))
			break
		}
		cl := cluster.BuildGreedyWalk(lines, live, lambda, walker)
		idx.phases = append(idx.phases, idx.storePhase(cl, lambda, false))
		if len(cl.Members) == len(live) {
			break // L_i = H_i: the paper's stopping condition
		}
		live = subtractSorted(live, cl.Members)
	}
	return idx
}

// storePhase materializes a clustering on the device.
func (x *Index) storePhase(cl *cluster.Clustering, lambda int, single bool) phase {
	p := phase{lambda: lambda, single: single}
	for _, c := range cl.Clusters {
		rs := make([]rec, len(c))
		for i, id := range c {
			rs[i] = rec{ID: int32(id), Line: x.lines[id]}
		}
		p.clusters = append(p.clusters, eio.NewArray(x.dev, rs))
	}
	if !single {
		pairs := make([]btree.Pair[int32], len(cl.Boundaries))
		for i, bx := range cl.Boundaries {
			pairs[i] = btree.Pair[int32]{Key: bx, Value: int32(i + 1)}
		}
		p.bounds = btree.BulkLoad(x.dev, pairs)
	}
	return p
}

// Phases returns the number of layers m (≤ N/β, see §3.2).
func (x *Index) Phases() int { return len(x.phases) }

// SpaceBlocks returns the blocks allocated on the device so far.
func (x *Index) SpaceBlocks() int64 { return x.dev.SpaceBlocks() }

// Below reports the indices of every line lying on or below the point q,
// ascending, in O(log_B n + t) I/Os (Theorem 3.5).
func (x *Index) Below(q geom.Point2) []int { return x.BelowAppend(q, nil) }

// BelowAppend appends the indices of every line lying on or below q to
// out, ascending and without duplicates, and returns the extended
// slice. The §3.3 walk adds what it finds to the answer set as it scans
// clusters a block at a time, and the set is drained once at the end,
// so the CPU cost is O(records scanned + t) with no comparison sort. A
// steady-state call on a warmed buffer performs zero heap allocations.
func (x *Index) BelowAppend(q geom.Point2, out []int) []int {
	for i := range x.phases {
		p := &x.phases[i]
		if p.single {
			x.markBelow(p.clusters[0], q)
			break
		}
		// Locate the relevant cluster via the boundary B-tree.
		j := 0
		if pr, ok := p.bounds.Predecessor(q.X); ok {
			j = int(pr.Value)
		}
		// Scan it, counting lines below q, then report them.
		below := countBelow(p.clusters[j], q)
		x.markBelow(p.clusters[j], q)
		if below < p.lambda {
			// Lemma 3.1: the relevant cluster contains every line of H_i
			// below q; stop.
			break
		}
		// Expansion (Lemma 3.4): visit clusters rightward until more than
		// λ_i distinct lines of C_{j+1..r} lie above q, then leftward
		// symmetrically, reporting below-lines of every visited cluster.
		for _, step := range [2]int{+1, -1} {
			x.aboveEpoch++
			if x.aboveEpoch == 0 { // wrapped: stale stamps could collide; clear
				clear(x.above)
				x.aboveEpoch = 1
			}
			for c, above := j+step, 0; c >= 0 && c < len(p.clusters) && above <= p.lambda; c += step {
				above += x.expand(p.clusters[c], q)
			}
		}
	}
	return x.ans.AppendSortedAndClear(out)
}

// countBelow scans cluster c and returns how many of its lines lie on
// or below q.
func countBelow(c *eio.Array[rec], q geom.Point2) int {
	n := 0
	for k, nb := 0, c.Blocks(); k < nb; k++ {
		blk := c.Block(k)
		for i := range blk {
			if belowOrOn(&blk[i], q) {
				n++
			}
		}
	}
	return n
}

// markBelow scans cluster c, adding its lines on or below q to the
// answer set.
func (x *Index) markBelow(c *eio.Array[rec], q geom.Point2) {
	for k, nb := 0, c.Blocks(); k < nb; k++ {
		blk := c.Block(k)
		for i := range blk {
			if belowOrOn(&blk[i], q) {
				x.ans.Add(blk[i].ID)
			}
		}
	}
}

// expand scans cluster c during a Lemma 3.4 expansion: lines on or
// below q join the answer set, and the return value is how many lines
// above q were met for the first time in this direction.
func (x *Index) expand(c *eio.Array[rec], q geom.Point2) int {
	fresh := 0
	for k, nb := 0, c.Blocks(); k < nb; k++ {
		blk := c.Block(k)
		for i := range blk {
			r := &blk[i]
			if belowOrOn(r, q) {
				x.ans.Add(r.ID)
			} else if x.above[r.ID] != x.aboveEpoch {
				x.above[r.ID] = x.aboveEpoch
				fresh++
			}
		}
	}
	return fresh
}

func belowOrOn(r *rec, q geom.Point2) bool {
	return geom.SideOfLine2(r.Line, q) >= 0 // q above or on the line
}

// ceilLogB returns max(1, ceil(log_b n)).
func ceilLogB(n, b int) int {
	if n <= 1 {
		return 1
	}
	log := 0
	v := 1
	for v < n {
		v *= b
		log++
	}
	return log
}

// subtractSorted returns live minus members; both must be sorted.
func subtractSorted(live, members []int) []int {
	out := live[:0:0]
	j := 0
	for _, v := range live {
		for j < len(members) && members[j] < v {
			j++
		}
		if j < len(members) && members[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// PointIndex is the primal-facing wrapper: it stores a point set and
// answers halfplane queries "report all points p with p.Y <= a·p.X + b"
// by querying the dual structure at the dual point (a, b).
type PointIndex struct {
	*Index
	points []geom.Point2
}

// NewPoints builds the §3 structure over a planar point set.
func NewPoints(dev *eio.Device, points []geom.Point2, opt Options) *PointIndex {
	lines := make([]geom.Line2, len(points))
	for i, p := range points {
		lines[i] = geom.DualOfPoint2(p)
	}
	return &PointIndex{Index: New(dev, lines, opt), points: points}
}

// Halfplane reports the indices of all points on or below y = a·x + b.
func (pi *PointIndex) Halfplane(a, b float64) []int {
	return pi.HalfplaneAppend(a, b, nil)
}

// HalfplaneAppend appends the indices of all points on or below
// y = a·x + b to out, ascending, and returns the extended slice. On a
// warmed buffer a steady-state query allocates nothing.
func (pi *PointIndex) HalfplaneAppend(a, b float64, out []int) []int {
	// A point p is on/below h iff the dual line p* passes on/below the
	// dual point h* = (a, b) (Lemma 2.1).
	return pi.BelowAppend(geom.Point2{X: a, Y: b}, out)
}

// Points returns the stored point set.
func (pi *PointIndex) Points() []geom.Point2 { return pi.points }
