package engine

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"linconstraint/internal/geom"
	"linconstraint/internal/index"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// TestNonFiniteOperandsError pins the engine's half of the non-finite
// contract: a query whose operand has an infinite or NaN coordinate
// gets an error wrapping index.ErrNonFinite (index.ErrUnsupported for an
// op the family does not answer) and is never dispatched to a shard,
// whose exact predicates would panic on it, and the finite query batched
// behind it answers exactly as it does alone.
func TestNonFiniteOperandsError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p2 := workload.Uniform2(rng, 2_000)
	pd := workload.CubeD(rng, 2_000, 3)
	p3 := make([]geom.Point3, len(pd))
	for i, p := range pd {
		p3[i] = geom.Point3{X: p[0], Y: p[1], Z: p[2]}
	}
	opt := Options{Shards: 4, BlockSize: 32, Seed: 1, Partitioner: partition.NewKDCut()}
	dynPlanar, dynPartition := NewDynamicPlanar(opt), NewDynamicPartition(opt)
	for i := 0; i < 500; i++ {
		if err := dynPlanar.Insert(Record{P2: p2[i]}); err != nil {
			t.Fatal(err)
		}
		if err := dynPartition.Insert(Record{PD: pd[i]}); err != nil {
			t.Fatal(err)
		}
	}
	halfplane := Query{Op: OpHalfplane, A: 0.3, B: 0.2}
	halfspaceD := Query{Op: OpHalfspaceD, Coef: []float64{0.1, 0.2, 0.3}}
	engines := []struct {
		name string
		e    *Engine
		good Query
	}{
		{"planar", NewPlanar(p2, opt), halfplane},
		{"3d", New3D(p3, opt), Query{Op: OpHalfspace3, A: 0.1, B: 0.2, C: 0.3}},
		{"knn", NewKNN(p2, opt), Query{Op: OpKNN, K: 5, Pt: geom.Point2{X: 0.5, Y: 0.5}}},
		{"partition", NewPartition(pd, opt), halfspaceD},
		{"dynamic planar", dynPlanar, halfplane},
		{"dynamic partition", dynPartition, halfspaceD},
	}
	bad := func(v float64) []Query {
		return []Query{
			{Op: OpHalfplane, A: v, B: 0.2},
			{Op: OpHalfplane, A: 0.3, B: v},
			{Op: OpHalfspace3, A: v, B: 0.2, C: 0.3},
			{Op: OpHalfspace3, A: 0.1, B: 0.2, C: v},
			{Op: OpHalfspaceD, Coef: []float64{0.1, 0.2, v}},
			{Op: OpConjunction, Constraints: []Constraint{
				{Coef: []float64{0.1, 0.2, 0.9}, Below: true},
				{Coef: []float64{v, 0.2, 0.1}},
			}},
			{Op: OpKNN, K: 5, Pt: geom.Point2{X: v, Y: 0.5}},
			{Op: OpKNN, K: 5, Pt: geom.Point2{X: 0.5, Y: v}},
		}
	}
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.e.Close()
			want := tc.e.Batch([]Query{tc.good})[0]
			if want.Err != nil || len(want.IDs)+len(want.Recs)+len(want.Neighbors) == 0 {
				t.Fatalf("finite query: err %v, empty answer", want.Err)
			}
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for _, q := range bad(v) {
					res := tc.e.Batch([]Query{q, tc.good})
					sentinel := index.ErrNonFinite
					if !tc.e.shards[0].reps[0].idx.Supports(q.Op) {
						sentinel = index.ErrUnsupported
					}
					if !errors.Is(res[0].Err, sentinel) {
						t.Errorf("%v operand %+v: err %v, want %v", q.Op, q, res[0].Err, sentinel)
					}
					got := res[1]
					if got.Err != nil || !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Neighbors, want.Neighbors) ||
						!slices.EqualFunc(got.Recs, want.Recs, func(x, y Record) bool { return x.Compare(y) == 0 }) {
						t.Errorf("finite query behind %v operand %+v: err %v, answer differs from alone", q.Op, q, got.Err)
					}
				}
			}
		})
	}
}
