// Package chan3d implements the paper's three-dimensional structure (§4),
// an externalization of Chan's random-sampling halfspace reporting: a
// hierarchy of random samples R_1 ⊂ R_2 ⊂ … of the plane set, each with a
// triangulated lower envelope Δ(R_i), an external point-location
// structure over its projection, and per-triangle conflict lists K(Δ).
//
// TryLowestPlanes (§4.1) answers "the k lowest planes along the vertical
// line at (x, y)" by locating the triangle of an appropriately sized
// sample's envelope above the query, scanning its conflict list, and
// failing (with probability O(δ)) if the list is too long or holds fewer
// than k planes below the envelope point; retries with geometrically
// shrinking δ give O(log_B n + k/B) expected I/Os (Theorem 4.2). Three
// independent hierarchies are queried at each δ, as the paper prescribes,
// to drive the failure probability to O(δ³). A final full-scan fallback
// (reached with negligible probability) guarantees correctness.
//
// On top of this, Below answers halfspace reporting queries with
// O(log_B n + t) expected I/Os by geometric search on k (§4.2, Theorem
// 4.4), and the lifting map gives planar k-nearest-neighbor queries in
// O(log_B n + k/B) expected I/Os (Theorem 4.3).
package chan3d

import (
	"math/rand"
	"slices"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/hull3d"
	"linconstraint/internal/idset"
	"linconstraint/internal/pointloc"
)

// Options configure construction.
type Options struct {
	Beta   int           // β = B·ceil(log_B n) when 0 (§4.1)
	Copies int           // independent hierarchies; 0 means 3, as in §4.1
	Seed   int64         // RNG seed for the sample permutations
	Window hull3d.Window // xy query window; zero value means [-100,100]^2
	// RefineTau controls conflict-list subdivision (hull3d.RefineConflicts):
	// 0 picks max(2B, 4N/|R|) per layer; negative disables refinement
	// (ablation: heavier query tails, DESIGN.md substitution 2).
	RefineTau int
}

// planeRec is a blocked record carrying a plane and its global id.
type planeRec struct {
	ID int32
	Pl geom.Plane3
}

// triRec carries one envelope triangle's supporting plane for the z test.
type triRec struct {
	Pl geom.Plane3
}

type layer struct {
	size      int
	env       *hull3d.Envelope
	loc       *pointloc.Slab
	tris      *eio.Array[triRec]
	conflicts []*eio.Array[planeRec]
}

type hierarchy struct {
	layers []layer // layers[i] has sample size min(2^(i+1), N)
}

// Index is the §4 structure over a set of planes. An Index is
// single-owner, like its Device: callers serialize access, which lets
// the query paths keep per-index scratch instead of allocating per
// query.
type Index struct {
	dev       *eio.Device
	planes    []geom.Plane3
	beta      int
	imax      int
	copies    []hierarchy
	all       *eio.Array[planeRec]
	win       hull3d.Window
	refineTau int

	// low is the KLowest candidate scratch; the slice a query returns
	// from kLowest aliases it and is valid until the next query. ans is
	// the Below answer set, drained in id order at the end of each query.
	low []Lowest
	ans idset.Set
}

// New builds the structure over planes on dev.
func New(dev *eio.Device, planes []geom.Plane3, opt Options) *Index {
	n := len(planes)
	idx := &Index{dev: dev, planes: planes, win: opt.Window, refineTau: opt.RefineTau, ans: idset.New(n)}
	if idx.win == (hull3d.Window{}) {
		idx.win = hull3d.Window{XMin: -100, XMax: 100, YMin: -100, YMax: 100}
	}
	b := dev.B()
	idx.beta = opt.Beta
	if idx.beta <= 0 {
		idx.beta = b * ceilLogB(dev.Blocks(n), b)
	}
	copies := opt.Copies
	if copies <= 0 {
		copies = 3
	}
	// Layers i = 1..imax with |R_i| = 2^i, 2^imax ~ N/beta (§4.1); a couple
	// of extra layers serve the first retry δ values cheaply.
	idx.imax = 1
	for (1<<(idx.imax+1)) <= maxInt(2, n/maxInt(1, idx.beta)*4) && (1<<(idx.imax+1)) <= n {
		idx.imax++
	}

	rng := rand.New(rand.NewSource(opt.Seed + 7))
	recs := make([]planeRec, n)
	for i, h := range planes {
		recs[i] = planeRec{ID: int32(i), Pl: h}
	}
	idx.all = eio.NewArray(dev, recs)

	for c := 0; c < copies; c++ {
		perm := rng.Perm(n)
		var h hierarchy
		for i := 1; i <= idx.imax; i++ {
			size := minInt(1<<i, n)
			h.layers = append(h.layers, idx.buildLayer(perm, size))
			if size == n {
				break
			}
		}
		idx.copies = append(idx.copies, h)
	}
	return idx
}

func (x *Index) buildLayer(perm []int, size int) layer {
	sample := make([]geom.Plane3, size)
	for i := 0; i < size; i++ {
		sample[i] = x.planes[perm[i]]
	}
	env := hull3d.Build(sample, x.win)

	rest := make([]geom.Plane3, 0, len(perm)-size)
	restIDs := make([]int32, 0, len(perm)-size)
	for _, pi := range perm[size:] {
		rest = append(rest, x.planes[pi])
		restIDs = append(restIDs, int32(pi))
	}
	// Cap per-triangle conflict length near its Lemma 4.1 expectation
	// N/size (a few blocks at least), subdividing outliers.
	var lists [][]int32
	switch {
	case x.refineTau < 0:
		lists = env.ConflictLists(rest)
	case x.refineTau > 0:
		lists = env.RefineConflicts(rest, x.refineTau, 6)
	default:
		tau := maxInt(2*x.dev.B(), 4*len(x.planes)/size)
		lists = env.RefineConflicts(rest, tau, 6)
	}

	l := layer{size: size, env: env, loc: pointloc.NewSlab(x.dev, env)}
	tris := make([]triRec, len(env.Tris))
	for i, tr := range env.Tris {
		tris[i] = triRec{Pl: x.planes[perm[tr.Plane]]}
	}
	l.tris = eio.NewArray(x.dev, tris)

	for _, list := range lists {
		recs := make([]planeRec, len(list))
		for j, ci := range list {
			recs[j] = planeRec{ID: restIDs[ci], Pl: rest[ci]}
		}
		l.conflicts = append(l.conflicts, eio.NewArray(x.dev, recs))
	}
	return l
}

// Lowest is one plane returned by a k-lowest query, with its height at
// the query abscissa.
type Lowest struct {
	ID int32
	Z  float64
}

// tryLowestPlanes is the §4.1 procedure for failure parameter δ = 2^-j:
// it consults the sample of size 2^ρ ≈ N·δ/k, whose conflict lists hold
// ~k/δ planes — enough to contain the k lowest with probability 1-O(δ) —
// and whose scan is capped at k/δ² entries.
func (x *Index) tryLowestPlanes(h *hierarchy, k int, qx, qy float64, j int) ([]Lowest, bool) {
	// ρ = ceil(log2(N δ / k)) = ceil(log2(N / (k 2^j))), clamped to the
	// hierarchy.
	n := len(x.planes)
	target := n / maxInt(1, k<<uint(j))
	rho := 1
	for (1<<(rho+1)) <= target && rho+1 <= len(h.layers) {
		rho++
	}
	// Scan budget: |K| <= k/δ² = k·4^j (§4.1). When the located triangle's
	// conflict list exceeds the budget we step to the next finer sample —
	// whose lists are half as long in expectation — rather than burning a
	// whole δ-round: a finer sample can only make the budget test pass
	// sooner, while the below-test (whose failure genuinely needs a
	// coarser sample, i.e. the next δ) is unaffected.
	budget := 4 * (k << (2 * uint(j)))
	var l *layer
	ti := -1
	for ; rho-1 < len(h.layers); rho++ {
		cand := &h.layers[rho-1]
		cti, ok := x.locateConsistent(cand, qx, qy)
		if !ok {
			return nil, false
		}
		if cand.conflicts[cti].Len() <= budget {
			l, ti = cand, cti
			break
		}
	}
	if l == nil {
		return nil, false
	}
	zq := l.tris.Get(ti).Pl.Eval(qx, qy)
	below := x.low[:0]
	list := l.conflicts[ti]
	for k, nb := 0, list.Blocks(); k < nb; k++ {
		blk := list.Block(k)
		for i := range blk {
			if z := blk[i].Pl.Eval(qx, qy); z < zq {
				below = append(below, Lowest{ID: blk[i].ID, Z: z})
			}
		}
	}
	x.low = below[:0]
	if len(below) < k {
		return nil, false // the k lowest are not all captured by K(Δ)
	}
	sortLowest(below)
	return below[:k], true
}

// locateConsistent locates the query in a layer's envelope.
func (x *Index) locateConsistent(l *layer, qx, qy float64) (int, bool) {
	return l.loc.Locate(qx, qy)
}

// KLowest returns the k lowest planes along the vertical line at (qx,
// qy), sorted by height (Theorem 4.2). For k >= N it returns all planes.
// The query point must lie in the index window.
func (x *Index) KLowest(k int, qx, qy float64) []Lowest {
	return append([]Lowest(nil), x.kLowest(k, qx, qy)...)
}

// kLowest is KLowest returning a slice of the index's scratch buffer —
// zero steady-state allocations; valid until the next query. The k-NN
// wrapper copies out of it into caller storage.
func (x *Index) kLowest(k int, qx, qy float64) []Lowest {
	n := len(x.planes)
	if k >= n {
		return x.scanLowest(n, qx, qy)
	}
	if k < 1 {
		return nil
	}
	for j := 1; ; j++ {
		for c := range x.copies {
			if res, ok := x.tryLowestPlanes(&x.copies[c], k, qx, qy, j); ok {
				return res
			}
		}
		// Once the scan budget k/δ² reaches the input size, a further
		// retry cannot be cheaper than the deterministic full scan, which
		// always succeeds. Reached with probability O(δ³) per round.
		if k<<(2*uint(j)) >= 4*n {
			return x.scanLowest(k, qx, qy)
		}
	}
}

// scanLowest selects the k lowest planes by scanning everything, into
// the index scratch.
func (x *Index) scanLowest(k int, qx, qy float64) []Lowest {
	all := x.low[:0]
	for k, nb := 0, x.all.Blocks(); k < nb; k++ {
		blk := x.all.Block(k)
		for i := range blk {
			all = append(all, Lowest{ID: blk[i].ID, Z: blk[i].Pl.Eval(qx, qy)})
		}
	}
	x.low = all[:0]
	sortLowest(all)
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// sortLowest orders candidates by height with ties broken by id, so
// that which planes survive a truncation to k is deterministic — the
// sharded engine's per-shard merge relies on this to reproduce the
// unsharded selection exactly when equal heights straddle the cutoff.
func sortLowest(ls []Lowest) {
	slices.SortFunc(ls, func(a, b Lowest) int {
		switch {
		case a.Z != b.Z:
			if a.Z < b.Z {
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
}

// Below reports the ids of every plane passing on or below the point q
// (§4.2, Theorem 4.4). The paper's geometric search on k is realized
// directly over the nested sample hierarchy: because R_1 ⊂ R_2 ⊂ …, the
// sample envelopes decrease pointwise with the layer index, so a binary
// search finds the finest layer whose envelope at (q.X, q.Y) is still
// above q. Every plane passing below q then lies strictly below that
// envelope point and hence in the hit triangle's conflict list, which is
// scanned once and filtered — O(log_B n) locates plus an output-
// proportional scan, the Theorem 4.4 shape.
func (x *Index) Below(q geom.Point3) []int { return x.BelowAppend(q, nil) }

// BelowAppend appends the ids of every plane passing on or below q to
// out, ascending, and returns the extended slice. The one list the
// query settles on is scanned a block at a time into the answer set,
// which is drained in id order: O(records scanned + t) CPU, no
// comparison sort. A steady-state call on a warmed buffer performs zero
// heap allocations.
func (x *Index) BelowAppend(q geom.Point3, out []int) []int {
	if len(x.planes) == 0 {
		return out
	}
	h := &x.copies[0]
	// envAbove reports whether layer li's envelope clears q, returning
	// the hit triangle for reuse.
	envAbove := func(li int) (int, bool) {
		l := &h.layers[li]
		ti, ok := l.loc.Locate(q.X, q.Y)
		if !ok {
			return -1, false
		}
		if l.tris.Get(ti).Pl.Eval(q.X, q.Y) > q.Z {
			return ti, true
		}
		return ti, false
	}
	// Binary search for the largest layer index whose envelope is above q.
	lo, hi := 0, len(h.layers)-1
	best, bestTri := -1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		ti, above := envAbove(mid)
		if ti < 0 {
			// Query outside the window: deterministic fallback.
			return x.reportBelow(x.all, q, out)
		}
		if above {
			best, bestTri = mid, ti
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if best < 0 {
		// Even the coarsest sample dips below q; the output is likely a
		// constant fraction of the input, so a scan is output-justified.
		return x.reportBelow(x.all, q, out)
	}
	// Tail control via the independent copies (the role they play in
	// §4.1): if copy 0's boundary layer produced an unusually long
	// conflict list — its sample got unlucky near q — probe the same and
	// the next finer layer in the other hierarchies and scan the shortest
	// qualifying list instead.
	bestCopy := 0
	bestLen := x.copies[0].layers[best].conflicts[bestTri].Len()
	if bestLen > 8*x.dev.B() {
		for c := 1; c < len(x.copies); c++ {
			hc := &x.copies[c]
			for _, li := range [2]int{best + 1, best} {
				if li < 0 || li >= len(hc.layers) {
					continue
				}
				l := &hc.layers[li]
				ti, ok := l.loc.Locate(q.X, q.Y)
				if !ok || l.tris.Get(ti).Pl.Eval(q.X, q.Y) <= q.Z {
					continue
				}
				if ln := l.conflicts[ti].Len(); ln < bestLen {
					bestCopy, best, bestTri, bestLen = c, li, ti, ln
				}
				break
			}
		}
	}
	return x.reportBelow(x.copies[bestCopy].layers[best].conflicts[bestTri], q, out)
}

// reportBelow scans list and appends the ids of its planes passing on
// or below q to out, ascending.
func (x *Index) reportBelow(list *eio.Array[planeRec], q geom.Point3, out []int) []int {
	for k, nb := 0, list.Blocks(); k < nb; k++ {
		blk := list.Block(k)
		for i := range blk {
			if geom.SideOfPlane3(blk[i].Pl, q) >= 0 { // q on or above the plane
				x.ans.Add(blk[i].ID)
			}
		}
	}
	return x.ans.AppendSortedAndClear(out)
}

// Planes returns the stored plane set.
func (x *Index) Planes() []geom.Plane3 { return x.planes }

// Beta returns the β parameter used by the index.
func (x *Index) Beta() int { return x.beta }

// Layers returns the number of layers in each hierarchy.
func (x *Index) Layers() int { return x.imax }

func ceilLogB(n, b int) int {
	if n <= 1 {
		return 1
	}
	log := 0
	for v := 1; v < n; v *= b {
		log++
	}
	return log
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
