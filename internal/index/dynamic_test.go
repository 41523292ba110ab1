package index

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/workload"
)

// TestDynamicPlanarAgainstModel drives random inserts/deletes/queries
// and compares every query against a brute-force model.
func TestDynamicPlanarAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dev := eio.NewDevice(16, 0)
	idx := NewDynamicPlanar(dev, 3)
	var model []geom.Point2

	for op := 0; op < 1500; op++ {
		switch r := rng.Intn(10); {
		case r < 6:
			p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
			mustInsert(t, idx, Record{P2: p})
			model = append(model, p)
		case r < 8:
			if len(model) == 0 {
				continue
			}
			i := rng.Intn(len(model))
			p := model[i]
			if ok, err := idx.Delete(Record{P2: p}); err != nil || !ok {
				t.Fatalf("op %d: Delete(%v) = %v, %v", op, p, ok, err)
			}
			model = append(model[:i], model[i+1:]...)
		default:
			a, b := rng.NormFloat64(), rng.Float64()
			got := idx.Halfplane(a, b)
			var want []geom.Point2
			for _, p := range model {
				if geom.SideOfLine2(geom.Line2{A: a, B: b}, p) <= 0 {
					want = append(want, p)
				}
			}
			if !samePointSet(got, want) {
				t.Fatalf("op %d: query (%v,%v): got %d, want %d", op, a, b, len(got), len(want))
			}
		}
		if idx.Len() != len(model) {
			t.Fatalf("op %d: Len %d, want %d", op, idx.Len(), len(model))
		}
	}
}

// nonEmpty counts the logarithmic method's non-empty buckets.
func nonEmpty[T any](buckets []*bucket[T]) int {
	n := 0
	for _, b := range buckets {
		if b != nil {
			n++
		}
	}
	return n
}

func mustInsert(t testing.TB, idx Mutable, r Record) {
	t.Helper()
	if err := idx.Insert(r); err != nil {
		t.Fatal(err)
	}
}

// TestQueryReadsEachBlockOnce extends the §3 query's read-once
// accounting to the logarithmic method: a query on the dynamized planar
// index runs the §3 walk in every bucket, and no bucket shares a block
// with another, so no block is read twice. The device caches more than
// the structure owns and is emptied before each query, so any hit is a
// re-read; the total read count is pinned as well.
func TestQueryReadsEachBlockOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dev := eio.NewDevice(16, 1<<20)
	idx := NewDynamicPlanar(dev, 4)
	pts := workload.Uniform2(rng, 5000)
	for _, p := range pts {
		mustInsert(t, idx, Record{P2: p})
	}
	if b := nonEmpty(idx.set.buckets); b != 5 {
		t.Fatalf("%d buckets, want 5 (5000 = 0b1001110001000)", b)
	}
	var ans Answer
	var reads int64
	for _, sel := range []float64{0.0005, 0.01, 0.1, 0.5, 1} {
		for i := 0; i < 40; i++ {
			h := workload.HalfplaneWithSelectivity(rng, pts, sel)
			dev.DropCache()
			before := dev.Stats()
			ans.Recs = ans.Recs[:0]
			if err := idx.QueryInto(Query{Op: OpHalfplane, A: h.A, B: h.B}, &ans); err != nil {
				t.Fatal(err)
			}
			d := dev.Stats().Sub(before)
			if d.Hits != 0 {
				t.Fatalf("selectivity %v query %d: %d of its %d block touches re-read a block", sel, i, d.Hits, d.Reads+d.Hits)
			}
			reads += d.Reads
		}
	}
	const golden = 41_967
	if reads != golden {
		t.Fatalf("200 queries read %d blocks, want %d", reads, golden)
	}
}

func samePointSet(a, b []geom.Point2) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(p geom.Point2) [2]float64 { return [2]float64{p.X, p.Y} }
	sa := make([][2]float64, len(a))
	sb := make([][2]float64, len(b))
	for i := range a {
		sa[i], sb[i] = key(a[i]), key(b[i])
	}
	lss := func(x, y [2]float64) bool { return x[0] < y[0] || (x[0] == y[0] && x[1] < y[1]) }
	sort.Slice(sa, func(i, j int) bool { return lss(sa[i], sa[j]) })
	sort.Slice(sb, func(i, j int) bool { return lss(sb[i], sb[j]) })
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

func TestDeleteAbsent(t *testing.T) {
	idx := NewDynamicPlanar(eio.NewDevice(8, 0), 1)
	del := func(p geom.Point2) bool {
		ok, err := idx.Delete(Record{P2: p})
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if del(geom.Point2{X: 1, Y: 1}) {
		t.Fatal("deleted from empty set")
	}
	mustInsert(t, idx, Record{P2: geom.Point2{X: 1, Y: 1}})
	if del(geom.Point2{X: 2, Y: 2}) {
		t.Fatal("deleted absent point")
	}
	if !del(geom.Point2{X: 1, Y: 1}) {
		t.Fatal("failed to delete present point")
	}
	if idx.Len() != 0 {
		t.Fatal("Len after delete")
	}
}

func TestBucketStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := NewDynamicPlanar(eio.NewDevice(8, 0), 1)
	for i := 0; i < 100; i++ {
		mustInsert(t, idx, Record{P2: geom.Point2{X: rng.Float64(), Y: rng.Float64()}})
	}
	// 100 = 64+32+4: three buckets.
	if got := nonEmpty(idx.set.buckets); got != 3 {
		t.Fatalf("buckets = %d, want 3", got)
	}
	if idx.Len() != 100 {
		t.Fatal("Len")
	}
}

func TestCompactAfterManyDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	idx := NewDynamicPlanar(eio.NewDevice(16, 0), 5)
	var pts []geom.Point2
	for i := 0; i < 256; i++ {
		p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
		pts = append(pts, p)
		mustInsert(t, idx, Record{P2: p})
	}
	for i := 0; i < 200; i++ {
		if ok, err := idx.Delete(Record{P2: pts[i]}); err != nil || !ok {
			t.Fatalf("delete %d failed (%v, %v)", i, ok, err)
		}
	}
	if idx.Len() != 56 {
		t.Fatalf("Len = %d", idx.Len())
	}
	got := idx.Halfplane(0, 2) // everything is below y = 2
	if len(got) != 56 {
		t.Fatalf("after compaction query returned %d, want 56", len(got))
	}
}

func TestDynamicPartitionAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := NewDynamicPartition(eio.NewDevice(16, 0))
	var model []geom.PointD
	for op := 0; op < 800; op++ {
		switch r := rng.Intn(10); {
		case r < 6:
			p := geom.PointD{rng.Float64(), rng.Float64(), rng.Float64()}
			mustInsert(t, idx, Record{PD: p})
			model = append(model, p)
		case r < 8:
			if len(model) == 0 {
				continue
			}
			i := rng.Intn(len(model))
			if ok, err := idx.Delete(Record{PD: model[i]}); err != nil || !ok {
				t.Fatalf("op %d: delete failed (%v, %v)", op, ok, err)
			}
			model = append(model[:i], model[i+1:]...)
		default:
			h := geom.HyperplaneD{Coef: []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3, 0.5}}
			got := idx.Halfspace(h.Coef)
			want := 0
			for _, p := range model {
				if geom.SideOfHyperplane(h, p) <= 0 {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("op %d: got %d, want %d", op, len(got), want)
			}
		}
	}
}

// TestDynamicPartitionSimplexAgainstModel: the dynamized tree's
// conjunction queries (matching the static adapter's OpConjunction
// coverage) must agree with a brute-force containment model under
// interleaved updates.
func TestDynamicPartitionSimplexAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	idx := NewDynamicPartition(eio.NewDevice(16, 0))
	var model []geom.PointD
	for op := 0; op < 600; op++ {
		switch r := rng.Intn(10); {
		case r < 6:
			p := geom.PointD{rng.Float64(), rng.Float64(), rng.Float64()}
			mustInsert(t, idx, Record{PD: p})
			model = append(model, p)
		case r < 7:
			if len(model) == 0 {
				continue
			}
			i := rng.Intn(len(model))
			if ok, err := idx.Delete(Record{PD: model[i]}); err != nil || !ok {
				t.Fatalf("op %d: delete failed (%v, %v)", op, ok, err)
			}
			model = append(model[:i], model[i+1:]...)
		default:
			// A slab between two parallel hyperplanes plus one more cut.
			hi := []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3, 0.4 + rng.Float64()*0.4}
			lo := []float64{hi[0], hi[1], hi[2] - 0.3}
			cs := []Constraint{{Coef: hi, Below: true}, {Coef: lo, Below: false}, {Coef: []float64{0.2, -0.1, 0.6}, Below: true}}
			sx := simplex(geom.Simplex{}, cs)
			got := idx.Conjunction(cs)
			want := 0
			for _, p := range model {
				if sx.Contains(p) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("op %d: simplex got %d, want %d", op, len(got), want)
			}
		}
	}
}

// TestAmortizedInsertCost: total build work over N inserts is
// O(N log N)-ish, so average per-insert device writes stay polylog.
func TestAmortizedInsertCost(t *testing.T) {
	dev := eio.NewDevice(16, 0)
	idx := NewDynamicPlanar(dev, 7)
	rng := rand.New(rand.NewSource(4))
	n := 1 << 10
	for i := 0; i < n; i++ {
		mustInsert(t, idx, Record{P2: geom.Point2{X: rng.Float64(), Y: rng.Float64()}})
	}
	writesPerInsert := float64(dev.Stats().Writes) / float64(n)
	// log2(1024) = 10 rebuild generations, each writing O(1/B·const) per item.
	if writesPerInsert > 40 {
		t.Fatalf("amortized writes per insert %v too high", writesPerInsert)
	}
}

// TestMultisetDeleteOneCopyAtATime: equal records are a multiset. 50
// copies of one point, interleaved with 300 distinct points, are deleted
// one at a time while distinct deletes drive compactions: every copy
// delete succeeds and removes exactly one copy, and the 51st misses.
func TestMultisetDeleteOneCopyAtATime(t *testing.T) {
	const copies = 50
	rng := rand.New(rand.NewSource(6))
	idx := NewDynamicPartition(eio.NewDevice(16, 0))
	dup := geom.PointD{0.5, 0.5, 0.5}
	var distinct []geom.PointD
	for i := 0; i < 300; i++ {
		p := geom.PointD{rng.Float64(), rng.Float64(), rng.Float64()}
		distinct = append(distinct, p)
		mustInsert(t, idx, Record{PD: p})
		if i%6 == 0 {
			mustInsert(t, idx, Record{PD: dup})
		}
	}
	everything := Query{Op: OpHalfspaceD, Coef: []float64{0, 0, 2}}
	countDup := func() int {
		ans, err := idx.Query(everything)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range ans.Recs {
			if comparePD(r.PD, dup) == 0 {
				n++
			}
		}
		return n
	}
	if got := countDup(); got != copies {
		t.Fatalf("%d copies stored, want %d", got, copies)
	}
	compactions := 0
	for k := 1; k <= copies; k++ {
		if ok, err := idx.Delete(Record{PD: dup}); err != nil || !ok {
			t.Fatalf("copy delete %d = %v, %v", k, ok, err)
		}
		if got := countDup(); got != copies-k {
			t.Fatalf("after %d copy deletes a query counts %d copies, want %d", k, got, copies-k)
		}
		for j := 0; j < 5; j++ {
			p := distinct[0]
			distinct = distinct[1:]
			dead := idx.set.dead
			if ok, err := idx.Delete(Record{PD: p}); err != nil || !ok {
				t.Fatalf("distinct delete = %v, %v", ok, err)
			}
			if idx.set.dead < dead {
				compactions++
			}
		}
	}
	if ok, err := idx.Delete(Record{PD: dup}); err != nil || ok {
		t.Fatalf("delete %d of %d copies = %v, %v; want a miss", copies+1, copies, ok, err)
	}
	if compactions == 0 {
		t.Fatal("no compaction fired; the test does not cover rebuilt buckets")
	}
	if want := len(distinct); idx.Len() != want {
		t.Fatalf("Len = %d, want %d", idx.Len(), want)
	}
}

// TestNonFiniteRecordsRejected: a record with a NaN or infinite
// coordinate is rejected by Insert and Delete with an error wrapping
// ErrNonFinite, never a panic; the index keeps its contents and answers
// the next query.
func TestNonFiniteRecordsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planar := NewDynamicPlanar(eio.NewDevice(16, 0), 1)
	part := NewDynamicPartition(eio.NewDevice(16, 0))
	for i := 0; i < 100; i++ {
		mustInsert(t, planar, Record{P2: geom.Point2{X: rng.Float64(), Y: rng.Float64()}})
		mustInsert(t, part, Record{PD: geom.PointD{rng.Float64(), rng.Float64(), rng.Float64()}})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases := []struct {
			name string
			idx  Mutable
			rec  Record
			q    Query
		}{
			{"planar x", planar, Record{P2: geom.Point2{X: bad, Y: 0.5}}, Query{Op: OpHalfplane, A: 0.1, B: 2}},
			{"planar y", planar, Record{P2: geom.Point2{X: 0.5, Y: bad}}, Query{Op: OpHalfplane, A: 0.1, B: 2}},
			{"partition first", part, Record{PD: geom.PointD{bad, 0.5, 0.1}}, Query{Op: OpHalfspaceD, Coef: []float64{0.1, 0.1, 2}}},
			{"partition last", part, Record{PD: geom.PointD{0.5, 0.5, bad}}, Query{Op: OpConjunction, Constraints: []Constraint{{Coef: []float64{0.1, 0.1, 2}, Below: true}}}},
		}
		for _, c := range cases {
			if err := c.idx.Insert(c.rec); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s = %v: Insert got %v, want ErrNonFinite", c.name, bad, err)
			}
			if ok, err := c.idx.Delete(c.rec); ok || !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s = %v: Delete got %v, %v, want ErrNonFinite", c.name, bad, ok, err)
			}
			if c.idx.Len() != 100 {
				t.Errorf("%s = %v: Len %d after a rejected record, want 100", c.name, bad, c.idx.Len())
			}
			ans, err := c.idx.Query(c.q)
			if err != nil || len(ans.Recs) != 100 {
				t.Errorf("%s = %v: next query got %d records, %v; want all 100", c.name, bad, len(ans.Recs), err)
			}
		}
	}
}

// FuzzDynamicPartition decodes bytes into a program of inserts, deletes,
// halfspace and conjunction queries on a 3-d DynamicPartition. Points
// and coefficients lie on a coarse lattice, so equal records and
// records exactly on a query plane are common; a coordinate byte above
// 0xfc is non-finite, and such a record must be rejected with
// ErrNonFinite and change nothing. Every answer equals a brute-force
// scan of a multiset model, in canonical order.
func FuzzDynamicPartition(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 2, 4, 4, 4, 1, 1, 2, 3, 3, 4, 4, 4, 0, 0, 4})
	f.Add([]byte{0, 7, 7, 7, 0, 7, 7, 7, 0, 0xfd, 1, 1, 1, 7, 7, 7, 2, 1, 3, 5, 3, 2, 2, 2, 6, 6, 6, 1})
	f.Add([]byte{0, 1, 1, 1, 0, 2, 2, 2, 0, 3, 3, 3, 0, 4, 4, 4, 0, 5, 5, 5, 1, 2, 2, 2, 1, 0xff, 0, 0, 2, 0, 0, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		next := func() byte {
			if len(raw) == 0 {
				return 0
			}
			b := raw[0]
			raw = raw[1:]
			return b
		}
		coord := func() float64 {
			switch b := next(); b {
			case 0xfd:
				return math.NaN()
			case 0xfe:
				return math.Inf(1)
			case 0xff:
				return math.Inf(-1)
			default:
				return float64(b%8) / 4
			}
		}
		coef := func() []float64 {
			return []float64{float64(int(next()%9)-4) / 4, float64(int(next()%9)-4) / 4, float64(next()%9) / 4}
		}
		idx := NewDynamicPartition(eio.NewDevice(4, 0))
		var model []geom.PointD
		check := func(q Query, keep func(geom.PointD) bool) {
			ans, err := idx.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			var want []geom.PointD
			for _, p := range model {
				if keep(p) {
					want = append(want, p)
				}
			}
			sortPD(want)
			if len(ans.Recs) != len(want) {
				t.Fatalf("%v over %d records: %d answers, want %d", q, len(model), len(ans.Recs), len(want))
			}
			for i, r := range ans.Recs {
				if comparePD(r.PD, want[i]) != 0 {
					t.Fatalf("%v: answer %d is %v, want %v", q, i, r.PD, want[i])
				}
			}
		}
		for ops := 0; len(raw) > 0 && ops < 96; ops++ {
			switch op := next() % 4; op {
			case 0, 1:
				insert := op == 0
				p := geom.PointD{coord(), coord(), coord()}
				finite := checkFinite("", p...) == nil
				var err error
				if insert {
					err = idx.Insert(Record{PD: p})
				} else {
					var ok bool
					ok, err = idx.Delete(Record{PD: p})
					i := slices.IndexFunc(model, func(q geom.PointD) bool { return slices.Equal(p, q) })
					if finite && ok != (i >= 0) {
						t.Fatalf("Delete(%v) = %v, model holds it: %v", p, ok, i >= 0)
					}
					if ok {
						model = slices.Delete(model, i, i+1)
					}
				}
				if !finite {
					if !errors.Is(err, ErrNonFinite) {
						t.Fatalf("record %v: got %v, want ErrNonFinite", p, err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if insert {
					model = append(model, p)
				}
			case 2:
				h := geom.HyperplaneD{Coef: coef()}
				check(Query{Op: OpHalfspaceD, Coef: h.Coef}, func(p geom.PointD) bool { return geom.SideOfHyperplane(h, p) <= 0 })
			case 3:
				cs := []Constraint{{Coef: coef(), Below: true}, {Coef: coef(), Below: next()%2 == 0}}
				sx := simplex(geom.Simplex{}, cs)
				check(Query{Op: OpConjunction, Constraints: cs}, sx.Contains)
			}
			if idx.Len() != len(model) {
				t.Fatalf("Len %d, model holds %d", idx.Len(), len(model))
			}
		}
	})
}

// TestDynamicPartitionReadsGolden pins the I/O of the mutable §5 family
// on one fixed program: 20 000 uniform 3-d inserts with a delete of a
// random live record after every tenth, on a cacheless device with
// B = 128, then 200 halfspaces and 200 slabs at 0.5 % selectivity. The
// rebuild writes, the bucket count and the queries' read total depend
// only on which records each bucket holds, not on their order inside
// it, so a change to how buckets store, merge or search their items
// must leave all three unchanged.
func TestDynamicPartitionReadsGolden(t *testing.T) {
	const (
		inserts = 20_000
		sel     = 0.005
	)
	rng := rand.New(rand.NewSource(42))
	dev := eio.NewDevice(128, 0)
	idx := NewDynamicPartition(dev)
	var live []geom.PointD
	for i := 0; i < inserts; i++ {
		p := geom.PointD{rng.Float64(), rng.Float64(), rng.Float64()}
		mustInsert(t, idx, Record{PD: p})
		live = append(live, p)
		if i%10 == 9 {
			j := rng.Intn(len(live))
			if ok, err := idx.Delete(Record{PD: live[j]}); err != nil || !ok {
				t.Fatalf("delete %v = %v, %v", live[j], ok, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	writes := dev.Stats().Writes
	buckets := nonEmpty(idx.set.buckets)

	// Query operands: the residual x_3 − a·x_1 − b·x_2 of a random
	// normal, cut at its sel-quantile (halfspace) or between a random
	// quantile in [0.1, 0.9] and sel above it (slab).
	res := make([]float64, len(live))
	plane := func() (a, b float64) {
		a, b = rng.NormFloat64()*0.5, rng.NormFloat64()*0.5
		for i, p := range live {
			res[i] = p[2] - a*p[0] - b*p[1]
		}
		slices.Sort(res)
		return a, b
	}
	n := float64(len(live))
	var qs []Query
	for i := 0; i < 200; i++ {
		a, b := plane()
		qs = append(qs, Query{Op: OpHalfspaceD, Coef: []float64{a, b, res[int(sel*n)]}})
	}
	for i := 0; i < 200; i++ {
		a, b := plane()
		lo := int((0.1 + 0.8*rng.Float64()) * n)
		qs = append(qs, Query{Op: OpConjunction, Constraints: []Constraint{
			{Coef: []float64{a, b, res[lo+int(sel*n)]}, Below: true},
			{Coef: []float64{a, b, res[lo]}, Below: false},
		}})
	}
	before := dev.Stats()
	var ans Answer
	hits := 0
	for _, q := range qs {
		ans.Recs = ans.Recs[:0]
		if err := idx.QueryInto(q, &ans); err != nil {
			t.Fatal(err)
		}
		hits += len(ans.Recs)
	}
	reads := dev.Stats().Sub(before).Reads
	t.Logf("%d live records in %d buckets; %d rebuild writes; 400 queries read %d blocks for %d records", idx.Len(), buckets, writes, reads, hits)
	const (
		goldenBuckets = 5
		goldenWrites  = 20_586
		goldenReads   = 20_551
	)
	if buckets != goldenBuckets || writes != goldenWrites || reads != goldenReads {
		t.Fatalf("%d buckets, %d rebuild writes, %d query reads; want %d, %d, %d",
			buckets, writes, reads, goldenBuckets, goldenWrites, goldenReads)
	}
}
