package main

// Seeded inputs and the brute-force oracle. Everything a workload feeds
// the system — points, operand pools, the mixed op stream — is generated
// here from a seed, and every expected answer is a linear scan over the
// generated points in this file, never a call into the code under test.

import (
	"math"
	"math/rand"
	"slices"

	"linconstraint/internal/geom"
	"linconstraint/internal/index"
)

// pointSet is n points of dimension d, row-major. The last coordinate
// is the one the paper's queries bound: x_d <= coef·(x_1..x_{d-1}, 1).
type pointSet struct {
	flat []float64
	d    int
}

func uniform(rng *rand.Rand, n, d int) pointSet {
	flat := make([]float64, n*d)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	return pointSet{flat, d}
}

func (ps pointSet) n() int { return len(ps.flat) / ps.d }

func (ps pointSet) row(i int) []float64 { return ps.flat[i*ps.d : (i+1)*ps.d : (i+1)*ps.d] }

func (ps pointSet) point2s() []geom.Point2 {
	out := make([]geom.Point2, ps.n())
	for i := range out {
		out[i] = geom.Point2{X: ps.flat[2*i], Y: ps.flat[2*i+1]}
	}
	return out
}

func (ps pointSet) point3s() []geom.Point3 {
	out := make([]geom.Point3, ps.n())
	for i := range out {
		out[i] = geom.Point3{X: ps.flat[3*i], Y: ps.flat[3*i+1], Z: ps.flat[3*i+2]}
	}
	return out
}

// pointDs aliases the rows; callers never mutate them.
func (ps pointSet) pointDs() []geom.PointD {
	out := make([]geom.PointD, ps.n())
	for i := range out {
		out[i] = ps.row(i)
	}
	return out
}

// plane draws a hyperplane with N(0, sd²) slopes and returns its
// coefficient vector once per rank, the intercept set midway between the
// rank-th and (rank+1)-th smallest residual x_d − slopes·x. Exactly rank
// points lie below it and none on it, so the float scan of the oracle
// and the exact predicates of the indexes cannot disagree. The first slope
// is the normal quantile at u, which lets a pool cover the slopes evenly.
// scratch holds n floats.
func (ps pointSet) plane(rng *rand.Rand, sd, u float64, scratch []float64, ranks ...int) [][]float64 {
	d, n := ps.d, ps.n()
	slopes := make([]float64, d-1)
	slopes[0] = sd * math.Sqrt2 * math.Erfinv(2*u-1)
	for j := 1; j < len(slopes); j++ {
		slopes[j] = rng.NormFloat64() * sd
	}
	res := scratch[:n]
	for i := range res {
		r := ps.flat[i*d+d-1]
		for j, s := range slopes {
			r -= s * ps.flat[i*d+j]
		}
		res[i] = r
	}
	out := make([][]float64, len(ranks))
	for k, rank := range ranks {
		out[k] = append(slices.Clone(slopes), midAfter(res, min(max(rank, 1), n-1)))
	}
	return out
}

// midAfter returns the value midway between the rank-th and (rank+1)-th
// smallest of res, 1 <= rank < len(res), reordering res. It selects rather
// than sorts: internal/workload's generators sort all n residuals per
// operand, 23 s for 2048 halfplanes over 100k points.
func midAfter(res []float64, rank int) float64 {
	selectKth(res, rank-1)
	return (res[rank-1] + slices.Min(res[rank:])) / 2
}

// selectKth partially sorts a so that a[k] is its k-th smallest value,
// with nothing larger before it and nothing smaller after it.
func selectKth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// constraintsOf spells a reporting query as the conjunction it means,
// the one form the oracle evaluates.
func constraintsOf(q index.Query) []index.Constraint {
	switch q.Op {
	case index.OpHalfplane:
		return []index.Constraint{{Coef: []float64{q.A, q.B}, Below: true}}
	case index.OpHalfspace3:
		return []index.Constraint{{Coef: []float64{q.A, q.B, q.C}, Below: true}}
	case index.OpHalfspaceD:
		return []index.Constraint{{Coef: q.Coef, Below: true}}
	default:
		return q.Constraints
	}
}

// satisfies evaluates every constraint on one point in plain floats.
func satisfies(p []float64, cs []index.Constraint) bool {
	d := len(p)
	for _, c := range cs {
		v := c.Coef[d-1]
		for j := 0; j < d-1; j++ {
			v += c.Coef[j] * p[j]
		}
		if c.Below && p[d-1] > v || !c.Below && p[d-1] < v {
			return false
		}
	}
	return true
}

// scanIDs is the static oracle: positions of the points satisfying cs,
// ascending — what a static engine reports as global ids.
func (ps pointSet) scanIDs(cs []index.Constraint) []int {
	var ids []int
	for i, n := 0, ps.n(); i < n; i++ {
		if satisfies(ps.row(i), cs) {
			ids = append(ids, i)
		}
	}
	return ids
}

// scanRecs is the mutable oracle: the live points satisfying cs in the
// canonical (lexicographic) order the mutable engines report.
func scanRecs(live []geom.PointD, cs []index.Constraint) []geom.PointD {
	var out []geom.PointD
	for _, p := range live {
		if satisfies(p, cs) {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b geom.PointD) int { return slices.Compare(a, b) })
	return out
}

func sameRecs(got []index.Record, want []geom.PointD) bool {
	return slices.EqualFunc(got, want, func(r index.Record, p geom.PointD) bool { return slices.Equal(r.PD, p) })
}

// strata returns count slope quantiles, one from each count-th of (0,1).
// The order the strata come in is a fixed shuffle — part of the workload,
// like its records — and the seed chooses only the point inside each.
// Slope decides how much work a query is far more than anything else
// drawn here: with slopes drawn independently planar_direct's I/Os per
// query moved ±0.4% from seed to seed, and planar_batch_io's, whose small
// caches also feel the order of the slopes, ±4.5%.
func strata(rng *rand.Rand, count int) []float64 {
	us := make([]float64, count)
	for i, k := range rand.New(rand.NewSource(dataSeed)).Perm(count) {
		us[i] = (float64(k) + rng.Float64()) / float64(count)
	}
	return us
}

// halfplanePool draws count halfplanes of the given selectivity.
func halfplanePool(rng *rand.Rand, ps pointSet, count int, sel float64) []index.Query {
	scratch := make([]float64, ps.n())
	rank := int(math.Round(sel * float64(ps.n())))
	pool := make([]index.Query, count)
	for i, u := range strata(rng, count) {
		c := ps.plane(rng, 1, u, scratch, rank)[0]
		pool[i] = index.Query{Op: index.OpHalfplane, A: c[0], B: c[1]}
	}
	return pool
}

// halfspacePool is halfplanePool for OpHalfspaceD (or OpHalfspace3 when
// three is set), slopes N(0, 0.5²) as in internal/workload.
func halfspacePool(rng *rand.Rand, ps pointSet, count int, sel float64, three bool) []index.Query {
	scratch := make([]float64, ps.n())
	rank := int(math.Round(sel * float64(ps.n())))
	pool := make([]index.Query, count)
	for i, u := range strata(rng, count) {
		c := ps.plane(rng, 0.5, u, scratch, rank)[0]
		if three {
			pool[i] = index.Query{Op: index.OpHalfspace3, A: c[0], B: c[1], C: c[2]}
		} else {
			pool[i] = index.Query{Op: index.OpHalfspaceD, Coef: c}
		}
	}
	return pool
}

// slabPool draws two-constraint conjunctions: the points between two
// parallel hyperplanes that cut off sel of the set at a random depth.
func slabPool(rng *rand.Rand, ps pointSet, count int, sel float64) []index.Query {
	scratch := make([]float64, ps.n())
	n := float64(ps.n())
	pool := make([]index.Query, count)
	for i, u := range strata(rng, count) {
		lo := int(math.Round((0.1 + 0.8*rng.Float64()) * n))
		cs := ps.plane(rng, 0.5, u, scratch, lo, lo+int(math.Round(sel*n)))
		pool[i] = index.Query{Op: index.OpConjunction, Constraints: []index.Constraint{
			{Coef: cs[1], Below: true}, {Coef: cs[0], Below: false},
		}}
	}
	return pool
}
