package index

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"linconstraint/internal/chan3d"
	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/halfspace2d"
	"linconstraint/internal/hull3d"
	"linconstraint/internal/partition"
	"linconstraint/internal/workload"
)

// TestAdaptersMatchWrappedStructures: every static adapter must answer
// exactly what the structure it wraps answers, through both the typed
// methods and the Query dispatch path.
func TestAdaptersMatchWrappedStructures(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	pts2 := workload.Uniform2(rng, 600)
	dev := eio.NewDevice(32, 0)
	refPlanar := halfspace2d.NewPoints(dev, pts2, halfspace2d.Options{Seed: 3})
	pl := NewPlanar(eio.NewDevice(32, 0), pts2, 3)
	h := workload.HalfplaneWithSelectivity(rng, pts2, 0.2)
	want := refPlanar.Halfplane(h.A, h.B)
	if got := pl.Halfplane(h.A, h.B); !reflect.DeepEqual(got, want) {
		t.Fatalf("planar typed: %d hits, want %d", len(got), len(want))
	}
	ans, err := pl.Query(Query{Op: OpHalfplane, A: h.A, B: h.B})
	if err != nil || !reflect.DeepEqual(ans.IDs, want) {
		t.Fatalf("planar dispatch: err=%v, %d hits, want %d", err, len(ans.IDs), len(want))
	}
	if pl.Len() != 600 {
		t.Fatalf("planar Len = %d", pl.Len())
	}

	pts3 := workload.Cube3(rng, 400)
	win := hull3d.Window{XMin: -2, XMax: 2, YMin: -2, YMax: 2}
	ref3 := chan3d.NewPoints3(eio.NewDevice(32, 0), pts3, chan3d.Options{Window: win, Seed: 1})
	sp := NewSpatial3(eio.NewDevice(32, 0), pts3, win, 1)
	p3 := workload.Plane3WithSelectivity(rng, pts3, 0.1)
	ans, err = sp.Query(Query{Op: OpHalfspace3, A: p3.A, B: p3.B, C: p3.C})
	if err != nil || !reflect.DeepEqual(ans.IDs, ref3.Halfspace(p3.A, p3.B, p3.C)) {
		t.Fatalf("3d dispatch mismatch (err=%v)", err)
	}

	refK := chan3d.NewKNN(eio.NewDevice(32, 0), pts2, chan3d.Options{Seed: 1})
	kn := NewKNN(eio.NewDevice(32, 0), pts2, 1)
	q := geom.Point2{X: 0.4, Y: 0.6}
	ans, err = kn.Query(Query{Op: OpKNN, K: 7, Pt: q})
	if err != nil || !reflect.DeepEqual(ans.Neighbors, refK.Query(7, q)) {
		t.Fatalf("knn dispatch mismatch (err=%v)", err)
	}

	ptsD := workload.CubeD(rng, 500, 3)
	refT := partition.New(eio.NewDevice(32, 0), ptsD, partition.Options{})
	pt := NewPartition(eio.NewDevice(32, 0), ptsD)
	hd := workload.HalfspaceWithSelectivityD(rng, ptsD, 0.3)
	ans, err = pt.Query(Query{Op: OpHalfspaceD, Coef: hd.H.Coef})
	if err != nil || !reflect.DeepEqual(ans.IDs, refT.Halfspace(hd.H)) {
		t.Fatalf("partition dispatch mismatch (err=%v)", err)
	}
	cs := []Constraint{
		{Coef: hd.H.Coef, Below: true},
		{Coef: []float64{0.1, -0.2, 0.6}, Below: true},
	}
	ans, err = pt.Query(Query{Op: OpConjunction, Constraints: cs})
	if err != nil || !reflect.DeepEqual(ans.IDs, refT.Simplex(simplex(geom.Simplex{}, cs))) {
		t.Fatalf("conjunction dispatch mismatch (err=%v)", err)
	}
}

// TestUnsupportedOps: every adapter must reject ops outside its family
// with an error wrapping ErrUnsupported — that is the capability probe
// the engine relies on.
func TestUnsupportedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts2 := workload.Uniform2(rng, 50)
	cases := []struct {
		name   string
		idx    Index
		serves map[Op]bool
	}{
		{"planar", NewPlanar(eio.NewDevice(16, 0), pts2, 1), map[Op]bool{OpHalfplane: true}},
		{"spatial3", NewSpatial3(eio.NewDevice(16, 0), nil, hull3d.Window{}, 1), map[Op]bool{OpHalfspace3: true}},
		{"knn", NewKNN(eio.NewDevice(16, 0), pts2, 1), map[Op]bool{OpKNN: true}},
		{"partition", NewPartition(eio.NewDevice(16, 0), nil), map[Op]bool{OpHalfspaceD: true, OpConjunction: true}},
		{"dynplanar", NewDynamicPlanar(eio.NewDevice(16, 0), 1), map[Op]bool{OpHalfplane: true}},
		{"dynpartition", NewDynamicPartition(eio.NewDevice(16, 0)), map[Op]bool{OpHalfspaceD: true, OpConjunction: true}},
	}
	allOps := []Op{OpHalfplane, OpHalfspace3, OpHalfspaceD, OpConjunction, OpKNN, OpInsert, OpDelete}
	for _, c := range cases {
		for _, op := range allOps {
			_, err := c.idx.Query(Query{Op: op, K: 1, Coef: []float64{0.5}})
			if c.serves[op] && err != nil {
				t.Errorf("%s must serve %v, got %v", c.name, op, err)
			}
			if !c.serves[op] && !errors.Is(err, ErrUnsupported) {
				t.Errorf("%s op %v: want ErrUnsupported, got %v", c.name, op, err)
			}
		}
	}
}

// TestOperandDimensionChecked: the partition adapters reject a
// halfspace or conjunction operand whose coefficient count is not the
// index's dimension — too long used to index past the tree's boxes, too
// short answered wrongly — with an error wrapping ErrUnsupported. An
// index with no dimension yet (no points, or nothing inserted) answers
// empty.
func TestOperandDimensionChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := workload.CubeD(rng, 200, 3)
	dyn := NewDynamicPartition(eio.NewDevice(16, 0))
	for _, p := range pts {
		if err := dyn.Insert(Record{PD: p}); err != nil {
			t.Fatal(err)
		}
	}
	good := []float64{0.1, 0.2, 0.5}
	indexes := []struct {
		name string
		idx  Index
		dim  bool // has a dimension to check against
	}{
		{"partition", NewPartition(eio.NewDevice(16, 0), pts), true},
		{"dynpartition", dyn, true},
		{"empty partition", NewPartition(eio.NewDevice(16, 0), nil), false},
		{"empty dynpartition", NewDynamicPartition(eio.NewDevice(16, 0)), false},
	}
	queries := []struct {
		name string
		q    Query
		ok   bool
	}{
		{"halfspace", Query{Op: OpHalfspaceD, Coef: good}, true},
		{"halfspace too long", Query{Op: OpHalfspaceD, Coef: []float64{1, 2, 3, 4, 5, 6}}, false},
		{"halfspace too short", Query{Op: OpHalfspaceD, Coef: []float64{0.5, 0.5}}, false},
		{"halfspace empty", Query{Op: OpHalfspaceD}, false},
		{"conjunction", Query{Op: OpConjunction, Constraints: []Constraint{{Coef: good, Below: true}}}, true},
		{"conjunction one bad", Query{Op: OpConjunction, Constraints: []Constraint{
			{Coef: good, Below: true}, {Coef: []float64{0.1, 0.2, 0.3, 0.4}},
		}}, false},
	}
	for _, x := range indexes {
		for _, c := range queries {
			ans, err := x.idx.Query(c.q)
			if !x.dim {
				if err != nil || len(ans.IDs)+len(ans.Recs) != 0 {
					t.Errorf("%s / %s: got %v (%d ids, %d recs), want an empty answer", x.name, c.name, err, len(ans.IDs), len(ans.Recs))
				}
				continue
			}
			if c.ok && err != nil {
				t.Errorf("%s / %s: %v", x.name, c.name, err)
			}
			if !c.ok && !errors.Is(err, ErrUnsupported) {
				t.Errorf("%s / %s: got %v, want an error wrapping ErrUnsupported", x.name, c.name, err)
			}
		}
	}
}

// TestQueryIntoRejectsNonFiniteOperands feeds NaN, +Inf and -Inf to
// every operand coordinate of every op each of the six adapters serves.
// QueryInto must return an error wrapping ErrNonFinite and append
// nothing, where the exact predicates below it would panic; the
// family's query method reports nothing. The finite operand the cases
// start from answers without error.
func TestQueryIntoRejectsNonFiniteOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts2 := workload.Uniform2(rng, 300)
	ptsD := workload.CubeD(rng, 300, 3)
	pts3 := make([]geom.Point3, len(ptsD))
	for i, p := range ptsD {
		pts3[i] = geom.Point3{X: p[0], Y: p[1], Z: p[2]}
	}
	dynPlanar, dynPartition := NewDynamicPlanar(eio.NewDevice(16, 0), 1), NewDynamicPartition(eio.NewDevice(16, 0))
	for i := 0; i < 100; i++ {
		mustInsert(t, dynPlanar, Record{P2: pts2[i]})
		mustInsert(t, dynPartition, Record{PD: ptsD[i]})
	}
	halfplane := Query{Op: OpHalfplane, A: 0.2, B: 0.3}
	halfspaceD := Query{Op: OpHalfspaceD, Coef: []float64{0.1, 0.2, 0.3}}
	conjunction := Query{Op: OpConjunction, Constraints: []Constraint{
		{Coef: []float64{0.1, 0.2, 0.6}, Below: true}, {Coef: []float64{0, 0, 0.2}},
	}}
	cases := []struct {
		name string
		idx  Index
		ops  []Query
	}{
		{"planar", NewPlanar(eio.NewDevice(16, 0), pts2, 1), []Query{halfplane}},
		{"spatial3", NewSpatial3(eio.NewDevice(16, 0), pts3, hull3d.Window{XMin: -2, XMax: 2, YMin: -2, YMax: 2}, 1),
			[]Query{{Op: OpHalfspace3, A: 0.1, B: 0.2, C: 0.3}}},
		{"knn", NewKNN(eio.NewDevice(16, 0), pts2, 1), []Query{{Op: OpKNN, K: 3, Pt: geom.Point2{X: 0.5, Y: 0.5}}}},
		{"partition", NewPartition(eio.NewDevice(16, 0), ptsD), []Query{halfspaceD, conjunction}},
		{"dynplanar", dynPlanar, []Query{halfplane}},
		{"dynpartition", dynPartition, []Query{halfspaceD, conjunction}},
	}
	for _, c := range cases {
		for _, good := range c.ops {
			if _, err := c.idx.Query(good); err != nil {
				t.Fatalf("%s %v: finite operand: %v", c.name, good.Op, err)
			}
			for slot := range operandSlots(&good) {
				for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					q := cloneQuery(good)
					*operandSlots(&q)[slot] = v
					var ans Answer
					if err := c.idx.QueryInto(q, &ans); !errors.Is(err, ErrNonFinite) {
						t.Errorf("%s %v slot %d = %v: QueryInto err %v, want ErrNonFinite", c.name, q.Op, slot, v, err)
					}
					if n := len(ans.IDs) + len(ans.Recs) + len(ans.Neighbors); n != 0 {
						t.Errorf("%s %v slot %d = %v: QueryInto appended %d answers", c.name, q.Op, slot, v, n)
					}
					if n := typedQuery(c.idx, q); n != 0 {
						t.Errorf("%s %v slot %d = %v: query method reported %d answers", c.name, q.Op, slot, v, n)
					}
				}
			}
		}
	}
}

// operandSlots points at every coordinate q's op reads.
func operandSlots(q *Query) []*float64 {
	var slots []*float64
	switch q.Op {
	case OpHalfplane:
		slots = append(slots, &q.A, &q.B)
	case OpHalfspace3:
		slots = append(slots, &q.A, &q.B, &q.C)
	case OpKNN:
		slots = append(slots, &q.Pt.X, &q.Pt.Y)
	case OpHalfspaceD:
		for i := range q.Coef {
			slots = append(slots, &q.Coef[i])
		}
	case OpConjunction:
		for _, c := range q.Constraints {
			for i := range c.Coef {
				slots = append(slots, &c.Coef[i])
			}
		}
	}
	return slots
}

// cloneQuery copies q with operand slices of its own.
func cloneQuery(q Query) Query {
	q.Coef = slices.Clone(q.Coef)
	q.Constraints = slices.Clone(q.Constraints)
	for i := range q.Constraints {
		q.Constraints[i].Coef = slices.Clone(q.Constraints[i].Coef)
	}
	return q
}

// typedQuery answers q through idx's family query method and returns
// the answer's length.
func typedQuery(idx Index, q Query) int {
	switch x := idx.(type) {
	case *Planar:
		return len(x.Halfplane(q.A, q.B))
	case *Spatial3:
		return len(x.Halfspace(q.A, q.B, q.C))
	case *KNN:
		return len(x.Nearest(q.K, q.Pt))
	case *Partition:
		if q.Op == OpHalfspaceD {
			return len(x.Halfspace(q.Coef))
		}
		return len(x.Conjunction(q.Constraints))
	case *DynamicPlanar:
		return len(x.Halfplane(q.A, q.B))
	case *DynamicPartition:
		if q.Op == OpHalfspaceD {
			return len(x.Halfspace(q.Coef))
		}
		return len(x.Conjunction(q.Constraints))
	}
	panic(fmt.Sprintf("no query method for %T", idx))
}

// TestEmptyAdapters: zero-point static adapters answer their ops with
// empty results and zero Len instead of building (or crashing on) an
// empty structure.
func TestEmptyAdapters(t *testing.T) {
	pl := NewPlanar(eio.NewDevice(16, 0), nil, 1)
	if ans, err := pl.Query(Query{Op: OpHalfplane, A: 0, B: 1}); err != nil || len(ans.IDs) != 0 || pl.Len() != 0 {
		t.Fatalf("empty planar: %v %v", ans, err)
	}
	kn := NewKNN(eio.NewDevice(16, 0), nil, 1)
	if ans, err := kn.Query(Query{Op: OpKNN, K: 3}); err != nil || len(ans.Neighbors) != 0 || kn.Len() != 0 {
		t.Fatalf("empty knn: %v %v", ans, err)
	}
}

// TestRecordLess pins the canonical record order the sharded merge
// depends on.
func TestRecordLess(t *testing.T) {
	cases := []struct {
		a, b Record
		want bool
	}{
		{Record{P2: geom.Point2{X: 1, Y: 5}}, Record{P2: geom.Point2{X: 2, Y: 0}}, true},
		{Record{P2: geom.Point2{X: 1, Y: 5}}, Record{P2: geom.Point2{X: 1, Y: 6}}, true},
		{Record{P2: geom.Point2{X: 1, Y: 5}}, Record{P2: geom.Point2{X: 1, Y: 5}}, false},
		{Record{PD: geom.PointD{1, 2}}, Record{PD: geom.PointD{1, 3}}, true},
		{Record{PD: geom.PointD{1, 2}}, Record{PD: geom.PointD{1, 2, 0}}, true},
		{Record{PD: geom.PointD{2}}, Record{PD: geom.PointD{1, 9}}, false},
	}
	for i, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("case %d: Less = %v, want %v", i, got, c.want)
		}
	}
}

// TestDynamicAdapterCanonicalOrder: the mutable adapters must report
// query answers sorted canonically regardless of insertion order, and
// their Stats must include the rebuild work the logarithmic method
// performs.
func TestDynamicAdapterCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDynamicPlanar(eio.NewDevice(16, 0), 1)
	var model []geom.Point2
	for i := 0; i < 300; i++ {
		p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
		d.Insert(Record{P2: p})
		model = append(model, p)
	}
	for i := 0; i < 100; i++ {
		if ok, err := d.Delete(Record{P2: model[i]}); err != nil || !ok {
			t.Fatalf("delete %d failed (%v, %v)", i, ok, err)
		}
	}
	model = model[100:]
	ans, err := d.Query(Query{Op: OpHalfplane, A: 0.2, B: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for _, p := range model {
		if geom.SideOfLine2(geom.Line2{A: 0.2, B: 0.5}, p) <= 0 {
			want = append(want, Record{P2: p})
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	if !reflect.DeepEqual(append([]Record{}, ans.Recs...), append([]Record{}, want...)) {
		t.Fatalf("canonical answer mismatch: got %d recs, want %d", len(ans.Recs), len(want))
	}
	if !sort.SliceIsSorted(ans.Recs, func(i, j int) bool { return ans.Recs[i].Less(ans.Recs[j]) }) {
		t.Fatal("answer not canonically sorted")
	}
	if d.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(model))
	}
	st := d.Stats()
	if st.IO.Writes == 0 || st.SpaceBlocks == 0 {
		t.Fatalf("stats must include rebuild work: %+v", st)
	}
	d.ResetStats()
	if d.Stats().IO != (eio.Stats{}) {
		t.Fatal("ResetStats left counters")
	}
}

// TestComparePDMatchesTwoLess: sortPD's one-pass comparison has the
// sign of the two-Less form it replaced, for random points, NaN, ±0,
// ±Inf, shared prefixes and unequal lengths.
func TestComparePDMatchesTwoLess(t *testing.T) {
	twoLess := func(p, q geom.PointD) int {
		switch {
		case Record{PD: p}.Less(Record{PD: q}):
			return -1
		case Record{PD: q}.Less(Record{PD: p}):
			return 1
		}
		return 0
	}
	vals := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -1, 0.5, math.Inf(1), math.Inf(-1), 5e-324}
	rng := rand.New(rand.NewSource(5))
	point := func() geom.PointD {
		p := make(geom.PointD, 1+rng.Intn(4))
		for i := range p {
			if rng.Intn(3) == 0 {
				p[i] = rng.Float64()
			} else {
				p[i] = vals[rng.Intn(len(vals))]
			}
		}
		return p
	}
	for i := 0; i < 200_000; i++ {
		p, q := point(), point()
		if rng.Intn(4) == 0 { // q shares a prefix of p
			q = append(geom.PointD(nil), p[:rng.Intn(len(p)+1)]...)
			if rng.Intn(2) == 0 {
				q = append(q, vals[rng.Intn(len(vals))])
			}
		}
		if got, want := comparePD(p, q), twoLess(p, q); got != want {
			t.Fatalf("comparePD(%v, %v) = %d, two-Less form %d", p, q, got, want)
		}
	}
}
