// Package planner computes, for one engine query and the per-shard
// summaries of internal/partition, the minimal set of shards that can
// contribute to the answer. The paper states its bounds as per-query
// block I/Os over one index; a sharded engine without a planner
// multiplies every bound by S because each of the S shards answers
// every query. Pruning restores near-per-paper cost whenever the shard
// layout gives shards disjoint regions (internal/partition's SFC and
// kd-cut layouts): a shard whose summary region provably misses the
// query region contributes nothing, so the engine never touches it.
//
// Every predicate here is one-sided: it may fail to prune (a visited
// shard that answers empty costs I/O, never correctness), but it must
// never prune a shard holding a qualifying record. Two disciplines
// enforce that. First, the geometric tests compare against summaries
// that only grow while queries can observe them (see
// partition.ShardSummary; the engine's rebalance shrinks them to the
// live set, but only under its exclusive migration lock, when no plan
// is in flight and none of the shrunk regions has lost a live record),
// so a record is always inside its shard's summarized region. Second,
// the float
// comparisons carry a relative slack: the indexes decide membership
// with exact rational predicates (internal/geom), so a prune decision
// within rounding distance of the boundary is refused and the shard is
// visited instead. The k-NN cutoff needs no slack — box distances use
// the same subtract-square-sum shape as point distances (see
// geom.Box.MinDist2), so a point's computed distance can never round
// below its box's.
package planner

import (
	"math"

	"linconstraint/internal/geom"
	"linconstraint/internal/index"
	"linconstraint/internal/partition"
)

// Verdict says what the planner decided about one shard for one
// query, and — when it pruned — *which bound* proved the shard cannot
// contribute. The explain path (Plan.Verdicts, the engine's
// per-op×per-verdict counters, Engine.ExplainInto) is built on this
// vocabulary; VerdictPrunedKNNCutoff is issued by the engine at run
// time (the kth distance is unknown at plan time), every other verdict
// by the predicates in this package.
type Verdict uint8

const (
	// VerdictVisited: no bound excluded the shard; the engine visits it.
	VerdictVisited Verdict = iota
	// VerdictPrunedEmpty: the summary's live count is zero — the shard
	// holds nothing (rebalance shrinks summaries to the live set, so
	// delete-hollowed shards earn this verdict again).
	VerdictPrunedEmpty
	// VerdictPrunedBox: the box half-space range test proved the
	// summarized region safely misses the query region.
	VerdictPrunedBox
	// VerdictPrunedSupport: the 2D support-function cone bound (the
	// directional extremes of the summary) excluded a shard the box
	// test could not.
	VerdictPrunedSupport
	// VerdictPrunedConstraint: one conjunction constraint's inside
	// halfspace safely misses the whole box.
	VerdictPrunedConstraint
	// VerdictPrunedKNNCutoff: the engine's run-time kth-distance cutoff
	// (taken from the answers of a k-NN query's first wave) excluded the
	// shard from the second.
	VerdictPrunedKNNCutoff
)

// NumVerdicts is the cardinality of the verdict label set.
const NumVerdicts = int(VerdictPrunedKNNCutoff) + 1

// verdictLabels is indexed by Verdict, pre-interned for instrument
// registration (same convention as OpLabels).
var verdictLabels = []string{
	VerdictVisited:          "visited",
	VerdictPrunedEmpty:      "empty",
	VerdictPrunedBox:        "box",
	VerdictPrunedSupport:    "support",
	VerdictPrunedConstraint: "constraint",
	VerdictPrunedKNNCutoff:  "knn_cutoff",
}

// VerdictLabels returns the label values, parallel to Verdict values.
// The caller must not mutate the slice.
func VerdictLabels() []string { return verdictLabels }

// String returns the verdict's label.
func (v Verdict) String() string {
	if int(v) < len(verdictLabels) {
		return verdictLabels[v]
	}
	return "unknown"
}

// Pruned reports whether the verdict excluded the shard.
func (v Verdict) Pruned() bool { return v != VerdictVisited }

// Plan is the shard set one query must visit.
type Plan struct {
	// Shards lists the shards that can contribute, ascending — except
	// for OpKNN, where they are ordered by increasing distance from the
	// query point to the shard's bounding box, the order the engine's
	// k-NN waves split.
	Shards []int
	// MinDist2 is parallel to Shards for OpKNN: the squared distance
	// from the query point to each shard's box (0 when inside). Empty
	// for other ops (nil when freshly planned, length 0 when a reused
	// Plan buffer last served a k-NN query).
	MinDist2 []float64
	// Verdicts is indexed by shard (length = number of summaries): the
	// plan-time decision for every shard, including the ones not in
	// Shards, with the bound that pruned each. The planner never issues
	// the k-NN cutoff; the engine writes it into a k-NN plan (and
	// truncates Shards to match) once the plan's first wave has
	// answered, identically for every query sharing the plan.
	Verdicts []Verdict
	// Pruned counts the shards excluded at plan time. For OpKNN the
	// engine's kth-distance cutoff may add to it at run time.
	Pruned int
}

// PlanQuery returns the shard set for q given one summary per shard.
// Ops the planner has no predicate for (updates, unknown ops) plan the
// full shard set.
func PlanQuery(q index.Query, sums []partition.ShardSummary) Plan {
	var pl Plan
	PlanQueryInto(q, sums, &pl)
	return pl
}

// PlanQueryInto is PlanQuery writing into pl, reusing its slice
// capacities — the engine's per-batch arenas call this so a
// steady-state plan allocates nothing. pl's previous contents are
// discarded.
func PlanQueryInto(q index.Query, sums []partition.ShardSummary, pl *Plan) {
	pl.Shards = pl.Shards[:0]
	pl.MinDist2 = pl.MinDist2[:0]
	pl.Verdicts = pl.Verdicts[:0]
	pl.Pruned = 0
	if q.Op == index.OpKNN {
		planKNN(q, sums, pl)
		return
	}
	// The query hyperplane is hoisted out of the per-shard loop (and its
	// coefficient storage kept on the stack) so planning never touches
	// the heap.
	var cbuf [3]float64
	var h geom.HyperplaneD
	switch q.Op {
	case index.OpHalfplane:
		cbuf[0], cbuf[1] = q.A, q.B
		h.Coef = cbuf[:2]
	case index.OpHalfspace3:
		cbuf[0], cbuf[1], cbuf[2] = q.A, q.B, q.C
		h.Coef = cbuf[:3]
	case index.OpHalfspaceD:
		h.Coef = q.Coef
	}
	for si, sum := range sums {
		v := mayContribute(q, h, sum)
		pl.Verdicts = append(pl.Verdicts, v)
		if v.Pruned() {
			pl.Pruned++
			continue
		}
		pl.Shards = append(pl.Shards, si)
	}
}

// --- op-kind vocabulary for plan telemetry ---------------------------------
//
// Plan verdicts (shards visited vs pruned) are attributed per op kind
// by the engine's metrics. The vocabulary lives here, next to the
// predicates that produce the verdicts: OpIndex maps an op to a dense
// slot and OpLabels gives the matching pre-interned label values, so
// instrument registration happens once and a per-query attribution is
// an array index — never a map lookup or a string format.

// opLabels is indexed by index.Op (the ops are a dense iota); the last
// slot catches unknown ops.
var opLabels = []string{
	index.OpHalfplane:   "halfplane",
	index.OpHalfspace3:  "halfspace3",
	index.OpHalfspaceD:  "halfspaceD",
	index.OpConjunction: "conjunction",
	index.OpKNN:         "knn",
	index.OpInsert:      "insert",
	index.OpDelete:      "delete",
	index.OpDelete + 1:  "other",
}

// NumOpKinds is the cardinality of the op-kind label set.
const NumOpKinds = int(index.OpDelete) + 2

// OpIndex returns the dense label slot of op (the last slot for ops
// outside the known set).
func OpIndex(op index.Op) int {
	if op >= 0 && int(op) < NumOpKinds-1 {
		return int(op)
	}
	return NumOpKinds - 1
}

// OpLabels returns the label values, parallel to OpIndex slots. The
// caller must not mutate the slice.
func OpLabels() []string { return opLabels }

// mayContribute decides whether a record of the summarized shard can
// satisfy q, returning the verdict (VerdictVisited, or which bound
// pruned); h is the query hyperplane precomputed by PlanQueryInto
// (meaningful for the halfplane/halfspace ops only). Unknown regions
// (no box yet) and ops without a predicate always may.
func mayContribute(q index.Query, h geom.HyperplaneD, sum partition.ShardSummary) Verdict {
	if sum.Count == 0 {
		return VerdictPrunedEmpty
	}
	if sum.Box.Min == nil {
		return VerdictVisited
	}
	switch q.Op {
	case index.OpHalfplane:
		return halfplaneMay(q.A, q.B, h, sum)
	case index.OpHalfspace3, index.OpHalfspaceD:
		if !halfspaceMay(h, sum.Box) {
			return VerdictPrunedBox
		}
	case index.OpConjunction:
		if !conjunctionMay(q.Constraints, sum.Box) {
			return VerdictPrunedConstraint
		}
	}
	return VerdictVisited
}

// safelyPositive (safelyNegative) reports that bound is positive
// (negative) by more than the accumulated rounding of the computation
// that produced it. scale must bound the magnitudes of the terms summed
// into bound — the residual computations cancel large terms, so a
// margin relative to the small result would be unsound; relative to the
// operands, 1e-9 leaves seven orders over the ~1e-16-per-operation
// float64 error. Non-finite bounds (overflow, a NaN from infinite
// summaries) never prune.
func safelyPositive(bound, scale float64) bool {
	if math.IsInf(bound, 0) || math.IsNaN(bound) || math.IsInf(scale, 0) || math.IsNaN(scale) {
		return false
	}
	return bound > 1e-9*(1+scale)
}

func safelyNegative(bound, scale float64) bool { return safelyPositive(-bound, scale) }

// halfspaceScale bounds the magnitude of the terms HalfspaceRange sums.
func halfspaceScale(h geom.HyperplaneD, box geom.Box) float64 {
	d := len(h.Coef)
	s := math.Abs(box.Min[d-1]) + math.Abs(box.Max[d-1]) + math.Abs(h.Coef[d-1])
	for i := 0; i < d-1; i++ {
		s += math.Abs(h.Coef[i]) * math.Max(math.Abs(box.Min[i]), math.Abs(box.Max[i]))
	}
	return s
}

// halfspaceMay reports whether the box can meet x_d <= h(x): prune only
// when the minimum of the residual p_d − h(p) over the box is safely
// positive. Dimension mismatches (a query of another dimension would be
// rejected by the index itself) conservatively visit.
func halfspaceMay(h geom.HyperplaneD, box geom.Box) bool {
	if len(h.Coef) != len(box.Min) || len(h.Coef) == 0 {
		return true
	}
	lo, _ := box.HalfspaceRange(h)
	return !safelyPositive(lo, halfspaceScale(h, box))
}

// halfplaneMay is halfspaceMay for d = 2, tightened by the summary's
// directional extremes: the query asks for a point with y − a·x <= b,
// i.e. v·p <= b for v = (−a, 1). v lies in the cone of two adjacent
// sampled directions u₁, u₂ (v.y = 1 > 0 and the samples cover the
// upper half-circle), so with v = λ₁u₁ + λ₂u₂, λ ≥ 0,
// min_p v·p ≥ λ₁·DirLo₁ + λ₂·DirLo₂ — the support-function bound, never
// weaker than the box corner bound when v falls between samples. The
// returned verdict names the bound that fired (box is tried first, so
// VerdictPrunedSupport marks exactly the prunes only the support
// function could prove).
func halfplaneMay(a, b float64, h geom.HyperplaneD, sum partition.ShardSummary) Verdict {
	if len(sum.Box.Min) == 2 {
		if lo, _ := sum.Box.HalfspaceRange(h); safelyPositive(lo, halfspaceScale(h, sum.Box)) {
			return VerdictPrunedBox
		}
	}
	if dirs := partition.Directions2(); len(sum.DirLo) == len(dirs) {
		v := [2]float64{-a, 1}
		th := math.Atan2(v[1], v[0]) // in (0, π)
		j := int(th / (math.Pi / 16))
		if j < 0 {
			j = 0
		}
		if j > len(dirs)-2 {
			j = len(dirs) - 2
		}
		u1, u2 := dirs[j], dirs[j+1]
		det := u1[0]*u2[1] - u1[1]*u2[0]
		if det != 0 {
			l1 := (v[0]*u2[1] - v[1]*u2[0]) / det
			l2 := (u1[0]*v[1] - u1[1]*v[0]) / det
			if l1 >= 0 && l2 >= 0 {
				db := l1*sum.DirLo[j] + l2*sum.DirLo[j+1] - b
				// The DirLo dot products can cancel large coordinates,
				// so the rounding basis is the box magnitude, not the
				// (possibly tiny) DirLo values.
				var mag float64
				for i := range sum.Box.Min {
					mag = math.Max(mag, math.Max(math.Abs(sum.Box.Min[i]), math.Abs(sum.Box.Max[i])))
				}
				scale := (l1+l2)*mag + math.Abs(b)
				if safelyPositive(db, scale) {
					return VerdictPrunedSupport
				}
			}
		}
	}
	return VerdictVisited
}

// conjunctionMay reports whether the box can meet every constraint:
// one constraint whose inside halfspace safely misses the whole box
// proves the shard empty for the query (the same single-constraint
// exclusion geom.Simplex.RegionSide uses, with slack).
func conjunctionMay(cs []index.Constraint, box geom.Box) bool {
	for _, c := range cs {
		if len(c.Coef) != len(box.Min) || len(c.Coef) == 0 {
			continue
		}
		h := geom.HyperplaneD{Coef: c.Coef}
		lo, hi := box.HalfspaceRange(h)
		scale := halfspaceScale(h, box)
		if c.Below && safelyPositive(lo, scale) {
			return false
		}
		if !c.Below && safelyNegative(hi, scale) {
			return false
		}
	}
	return true
}

// planKNN orders the candidate shards by distance from the query point
// to their boxes — the order the engine's two waves split (the nearest
// first, the rest up to the kth-distance cutoff). Only provably empty
// shards are pruned here; geometry alone cannot drop a populated shard without
// knowing the kth distance, which emerges as shards answer. The (d2,
// si)-ordered candidates are built and insertion-sorted directly in
// pl's parallel slices (S is small and the input near-sorted; no
// allocation, deterministic total order).
func planKNN(q index.Query, sums []partition.ShardSummary, pl *Plan) {
	var qbuf [2]float64
	qbuf[0], qbuf[1] = q.Pt.X, q.Pt.Y
	qp := geom.PointD(qbuf[:])
	for si, sum := range sums {
		if sum.Count == 0 {
			pl.Verdicts = append(pl.Verdicts, VerdictPrunedEmpty)
			pl.Pruned++
			continue
		}
		pl.Verdicts = append(pl.Verdicts, VerdictVisited)
		d2 := 0.0 // unknown region: order first, never cut off early
		if len(sum.Box.Min) == 2 {
			d2 = sum.Box.MinDist2(qp)
		}
		pl.Shards = append(pl.Shards, si)
		pl.MinDist2 = append(pl.MinDist2, d2)
	}
	for i := 1; i < len(pl.Shards); i++ {
		si, d2 := pl.Shards[i], pl.MinDist2[i]
		j := i
		for j > 0 && (pl.MinDist2[j-1] > d2 || (pl.MinDist2[j-1] == d2 && pl.Shards[j-1] > si)) {
			pl.Shards[j], pl.MinDist2[j] = pl.Shards[j-1], pl.MinDist2[j-1]
			j--
		}
		pl.Shards[j], pl.MinDist2[j] = si, d2
	}
}
