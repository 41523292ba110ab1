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
	"sort"

	"linconstraint/internal/arrangement"
	"linconstraint/internal/geom"
)

// Clustering is a greedy 3k-clustering of a k-level.
type Clustering struct {
	K          int       // the level parameter (λ in §3.2)
	Boundaries []float64 // x of w_1..w_{u-1}; cluster i covers [w_i, w_{i+1}) with w_0 = -inf
	Clusters   [][]int   // line indices, each sorted by slope ascending
	Members    []int     // union of all clusters, deduplicated
}

// Size returns the number of clusters.
func (c *Clustering) Size() int { return len(c.Clusters) }

// Relevant returns the index of the cluster whose x-range contains x: the
// number of boundaries at or left of x.
func (c *Clustering) Relevant(x float64) int {
	return sort.Search(len(c.Boundaries), func(i int) bool { return c.Boundaries[i] > x })
}

// BuildGreedy computes the greedy 3k-clustering of the k-level of the
// live subset of lines, walking the level with the Edelsbrunner–Welzl
// oracle (arrangement.WalkEW) the §3 construction runs. It requires
// 1 <= k < len(live).
func BuildGreedy(lines []geom.Line2, live []int, k int) *Clustering {
	if k < 1 || k >= len(live) {
		panic("cluster: level parameter out of range")
	}
	order := arrangement.OrderAtMinusInf(lines, live)

	below := make(map[int]bool, k) // lines strictly below the current level point
	for _, id := range order[:k] {
		below[id] = true
	}

	cl := &Clustering{K: k}
	cur := make(map[int]bool, 3*k) // current cluster under construction
	var curList []int
	for id := range below {
		cur[id] = true
		curList = append(curList, id)
	}
	inAny := make(map[int]bool) // membership across all clusters (for Members)

	closeCluster := func() {
		sort.Slice(curList, func(a, b int) bool { return lines[curList[a]].A < lines[curList[b]].A })
		cl.Clusters = append(cl.Clusters, append([]int(nil), curList...))
		for _, id := range curList {
			if !inAny[id] {
				inAny[id] = true
				cl.Members = append(cl.Members, id)
			}
		}
	}

	arrangement.WalkEW(lines, live, k, func(v arrangement.Vertex) bool {
		if !v.Convex {
			// Concave (upward) vertex: the below-set is unchanged (§3.1).
			return true
		}
		// Convex vertex: the entering line (minimum slope through v) drops
		// below the level; the leaving line rises out of the below-set.
		cand := v.Enter
		if !cur[cand] {
			if len(curList) >= 3*k {
				// Close the cluster at boundary v and open the next one
				// from the below-set just right of v.
				closeCluster()
				cl.Boundaries = append(cl.Boundaries, v.X)
				cur = make(map[int]bool, 3*k)
				curList = curList[:0]
				delete(below, v.Leave)
				below[v.Enter] = true
				for id := range below {
					cur[id] = true
					curList = append(curList, id)
				}
				return true
			}
			cur[cand] = true
			curList = append(curList, cand)
		}
		delete(below, v.Leave)
		below[v.Enter] = true
		return true
	})
	closeCluster()
	sort.Ints(cl.Members)
	return cl
}

// Single returns a degenerate clustering with one cluster holding every
// live line, used for the final phase of the §3 structure when too few
// lines remain to define a λ-level.
func Single(lines []geom.Line2, live []int) *Clustering {
	c := append([]int(nil), live...)
	sort.Slice(c, func(a, b int) bool { return lines[c[a]].A < lines[c[b]].A })
	members := append([]int(nil), live...)
	sort.Ints(members)
	return &Clustering{K: 0, Clusters: [][]int{c}, Members: members}
}
