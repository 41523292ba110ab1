// Package cluster implements the level-compression scheme of §3.1: the
// greedy 3k-clustering of the k-level A_k(L) (Lemma 3.2, Figs. 3–5).
//
// A clustering partitions the x-axis at boundary vertices w_1 < … < w_{u-1}
// of the level; cluster C_i is the set of lines passing strictly below
// some point of the level between w_{i-1} and w_i. The greedy construction
// guarantees:
//
//   - every cluster holds at most 3k lines (it starts from the ≤ k lines
//     below the opening boundary and closes before exceeding 3k);
//   - there are at most N/k clusters, because at least k lines of each
//     cluster never reappear in any later cluster (the exit-point argument
//     of Lemma 3.2, Fig. 4);
//   - a line's clusters form a contiguous interval (Corollary 3.3), which
//     enables duplicate-free reporting.
package cluster

import (
	"slices"
	"sort"

	"linconstraint/internal/arrangement"
	"linconstraint/internal/envelope"
)

// Clustering is a greedy 3k-clustering of a k-level.
type Clustering struct {
	K          int       // the level parameter (λ in §3.2)
	Boundaries []float64 // x of w_1..w_{u-1}; cluster i covers [w_i, w_{i+1}) with w_0 = -inf
	Clusters   [][]int   // line indices, each sorted by slope ascending, ties by intercept
	Members    []int     // union of all clusters, deduplicated
}

// Relevant returns the index of the cluster whose x-range contains x: the
// number of boundaries at or left of x.
func (c *Clustering) Relevant(x float64) int {
	return sort.Search(len(c.Boundaries), func(i int) bool { return c.Boundaries[i] > x })
}

// BuildGreedy computes the greedy 3k-clustering of the k-level of the
// live subset of u's lines, walking the level with the
// Edelsbrunner–Welzl oracle (arrangement.WalkEW) the §3 construction
// runs. Every order it needs comes from u's slope order. It requires
// 1 <= k < len(live).
func BuildGreedy(u *envelope.Universe, live []int, k int) *Clustering {
	if k < 1 || k >= len(live) {
		panic("cluster: level parameter out of range")
	}
	order := arrangement.OrderAtMinusInf(u, live)

	// below lists the lines strictly below the current level point, and
	// at[id] is id's index in it whenever id is there.
	below := append(make([]int, 0, k), order[:k]...)
	at := make([]int, len(u.Lines))
	for i, id := range below {
		at[id] = i
	}
	isBelow := func(id int) bool { i := at[id]; return i < len(below) && below[i] == id }
	// pass moves the below-set past a convex vertex: the entering line
	// (minimum slope through v) drops below the level, the leaving line
	// rises out of the below-set.
	pass := func(v arrangement.Vertex) {
		if isBelow(v.Leave) {
			i, last := at[v.Leave], below[len(below)-1]
			below[i], at[last] = last, i
			below = below[:len(below)-1]
		}
		if !isBelow(v.Enter) {
			at[v.Enter] = len(below)
			below = append(below, v.Enter)
		}
	}

	cl := &Clustering{K: k}
	inCur := make([]bool, len(u.Lines)) // the cluster under construction
	inAny := make([]bool, len(u.Lines)) // membership across all clusters (for Members)
	var curList []int
	openCluster := func() {
		curList = append(curList[:0], below...)
		for _, id := range curList {
			inCur[id] = true
		}
	}
	closeCluster := func() {
		slices.SortFunc(curList, u.BySlope)
		cl.Clusters = append(cl.Clusters, append([]int(nil), curList...))
		for _, id := range curList {
			inCur[id] = false
			if !inAny[id] {
				inAny[id] = true
				cl.Members = append(cl.Members, id)
			}
		}
	}

	openCluster()
	arrangement.WalkEW(u, order, k, func(v arrangement.Vertex) bool {
		if !v.Convex {
			// Concave (upward) vertex: the below-set is unchanged (§3.1).
			return true
		}
		if cand := v.Enter; !inCur[cand] {
			if len(curList) >= 3*k {
				// Close the cluster at boundary v and open the next one
				// from the below-set just right of v.
				closeCluster()
				cl.Boundaries = append(cl.Boundaries, v.X)
				pass(v)
				openCluster()
				return true
			}
			inCur[cand] = true
			curList = append(curList, cand)
		}
		pass(v)
		return true
	})
	closeCluster()
	slices.Sort(cl.Members)
	return cl
}

// Single returns a degenerate clustering with one cluster holding every
// live line, used for the final phase of the §3 structure when too few
// lines remain to define a λ-level.
func Single(u *envelope.Universe, live []int) *Clustering {
	c := append([]int(nil), live...)
	slices.SortFunc(c, u.BySlope)
	members := append([]int(nil), live...)
	slices.Sort(members)
	return &Clustering{K: 0, Clusters: [][]int{c}, Members: members}
}
