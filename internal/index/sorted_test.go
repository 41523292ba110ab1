package index

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/workload"
)

// sortPD orders points canonically (the Record order): the reference
// the tests put brute-force answers in.
func sortPD(pts []geom.PointD) []geom.PointD {
	slices.SortFunc(pts, comparePD)
	return pts
}

// checkBuckets fails unless every bucket's items are non-decreasing
// under the set's cmp and its live count matches its tombstones.
func checkBuckets[T any](t *testing.T, step int, s *logSet[T]) {
	t.Helper()
	for i, b := range s.buckets {
		if b == nil {
			continue
		}
		if !slices.IsSortedFunc(b.items, s.cmp) {
			t.Fatalf("step %d: bucket %d is out of order: %v", step, i, b.items)
		}
		if live := len(b.items) - countTrue(b.dead); live != b.live {
			t.Fatalf("step %d: bucket %d counts %d live items, holds %d", step, i, b.live, live)
		}
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestBucketsStaySorted drives random insert and delete programs and
// checks after every step that each bucket is sorted under cmp, for
// both families. The partition family draws from a small lattice, so
// most records have many copies and deletes drive compactions. The §3
// build takes distinct points in general position only, so the planar
// family toggles the membership of a pool of 64 random points: a
// deleted point is inserted again later, while its tombstoned copy may
// still sit in a bucket.
func TestBucketsStaySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	t.Run("partition", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			idx := NewDynamicPartition(eio.NewDevice(4, 0))
			var model []geom.PointD
			compactions := 0
			for step := 0; step < 300; step++ {
				p := geom.PointD{float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(2))}
				if rng.Intn(5) < 3 {
					mustInsert(t, idx, Record{PD: p})
					model = append(model, p)
				} else {
					dead := idx.set.dead
					ok, err := idx.Delete(Record{PD: p})
					i := slices.IndexFunc(model, func(q geom.PointD) bool { return slices.Equal(p, q) })
					if err != nil || ok != (i >= 0) {
						t.Fatalf("trial %d step %d: Delete(%v) = %v, %v; model holds it: %v", trial, step, p, ok, err, i >= 0)
					}
					if ok {
						model = slices.Delete(model, i, i+1)
					}
					if idx.set.dead < dead {
						compactions++
					}
				}
				checkBuckets(t, step, idx.set)
				if idx.Len() != len(model) {
					t.Fatalf("trial %d step %d: Len %d, model holds %d", trial, step, idx.Len(), len(model))
				}
			}
			if trial == 0 && compactions == 0 {
				t.Fatal("no compaction fired")
			}
		}
	})
	t.Run("planar", func(t *testing.T) {
		idx := NewDynamicPlanar(eio.NewDevice(4, 0), 1)
		pool := make([]geom.Point2, 64)
		for i := range pool {
			pool[i] = geom.Point2{X: rng.Float64(), Y: rng.Float64()}
		}
		in := map[geom.Point2]bool{}
		for step := 0; step < 1500; step++ {
			p := pool[rng.Intn(len(pool))]
			if in[p] {
				if ok, err := idx.Delete(Record{P2: p}); err != nil || !ok {
					t.Fatalf("step %d: Delete(%v) = %v, %v", step, p, ok, err)
				}
			} else {
				mustInsert(t, idx, Record{P2: p})
			}
			in[p] = !in[p]
			checkBuckets(t, step, idx.set)
		}
	})
}

// TestDeleteTombstonesOneCopy: in a bucket holding a run of equal items
// whose first and last copies are already tombstoned, a delete marks
// exactly one more copy — the first live one of the run — and leaves
// the other items alone, until every copy is dead and the next delete
// misses.
func TestDeleteTombstonesOneCopy(t *testing.T) {
	s := &logSet[geom.PointD]{
		dev:   eio.NewDevice(4, 0),
		build: func(d *eio.Device, pts []geom.PointD) Index { return NewPartition(d, pts) },
		cmp:   comparePD,
	}
	// 64 sorted items: 30 below the run of 5 copies of dup, 29 above.
	dup := geom.PointD{1, 1, 1}
	var items []geom.PointD
	for i := 0; i < 30; i++ {
		items = append(items, geom.PointD{0, 0, float64(i)})
	}
	for i := 0; i < 5; i++ {
		items = append(items, dup)
	}
	for i := 0; i < 29; i++ {
		items = append(items, geom.PointD{2, 0, float64(i)})
	}
	b := s.newBucket(items)
	s.buckets = []*bucket[geom.PointD]{nil, nil, nil, nil, nil, nil, b}
	// The first and last copies (positions 30 and 34) are dead already;
	// five dead items of 64 are too few for a compaction.
	b.dead[30], b.dead[34] = true, true
	b.live -= 2
	s.live, s.dead = b.live, 2
	for want := 31; want <= 33; want++ {
		before := slices.Clone(b.dead)
		if !s.delete(dup) {
			t.Fatalf("delete of copy at %d missed", want)
		}
		for j := range b.dead {
			if b.dead[j] != (before[j] || j == want) {
				t.Fatalf("after deleting the copy at %d: tombstones %v, before %v", want, b.dead, before)
			}
		}
	}
	if s.delete(dup) {
		t.Fatalf("delete with every copy dead succeeded: tombstones %v", b.dead)
	}
	if b.live != 59 || countTrue(b.dead) != 5 {
		t.Fatalf("bucket counts %d live, %d tombstones; want 59 and 5", b.live, countTrue(b.dead))
	}
}

// BenchmarkDynamicPartitionQuery answers halfspaces and slabs at 0.5 %
// on a 3-d DynamicPartition of 24 992 uniform records in 5 buckets
// (16 384 + 8 192 + 256 + 128 + 32), the size of one of dyn_mixed's
// eight shards, through a warm QueryInto. It reports allocs/op, which
// must be 0, records per query and device reads per query.
func BenchmarkDynamicPartitionQuery(b *testing.B) {
	const n, k = 24_992, 24_992 / 200 // k: 0.5 % of n
	rng := rand.New(rand.NewSource(1))
	dev := eio.NewDevice(128, 0)
	idx := NewDynamicPartition(dev)
	pts := workload.CubeD(rng, n, 3)
	for _, p := range pts {
		mustInsert(b, idx, Record{PD: p})
	}
	if got := nonEmpty(idx.set.buckets); got != 5 {
		b.Fatalf("%d buckets, want 5", got)
	}
	// Query operands: the residual x_3 − a·x_1 − b·x_2 of a random
	// normal, cut k records up (halfspace) or between a random quantile
	// in [0.1, 0.9] and k records above it (slab).
	res := make([]float64, n)
	plane := func() (a, b float64) {
		a, b = rng.NormFloat64()*0.5, rng.NormFloat64()*0.5
		for i, p := range pts {
			res[i] = p[2] - a*p[0] - b*p[1]
		}
		slices.Sort(res)
		return a, b
	}
	kinds := map[string]func() Query{
		"halfspace": func() Query {
			a, b := plane()
			return Query{Op: OpHalfspaceD, Coef: []float64{a, b, res[k]}}
		},
		"slab": func() Query {
			a, b := plane()
			lo := int((0.1 + 0.8*rng.Float64()) * n)
			return Query{Op: OpConjunction, Constraints: []Constraint{
				{Coef: []float64{a, b, res[lo+k]}, Below: true},
				{Coef: []float64{a, b, res[lo]}, Below: false},
			}}
		},
	}
	for _, kind := range []string{"halfspace", "slab"} {
		qs := make([]Query, 64)
		for i := range qs {
			qs[i] = kinds[kind]()
		}
		b.Run(kind, func(b *testing.B) {
			var ans Answer
			for _, q := range qs { // warm the scratch to its high-water mark
				ans.Recs = ans.Recs[:0]
				if err := idx.QueryInto(q, &ans); err != nil {
					b.Fatal(err)
				}
			}
			recs, before := 0, dev.Stats().Reads
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ans.Recs = ans.Recs[:0]
				if err := idx.QueryInto(qs[i%len(qs)], &ans); err != nil {
					b.Fatal(err)
				}
				recs += len(ans.Recs)
			}
			b.ReportMetric(float64(recs)/float64(b.N), "recs/op")
			b.ReportMetric(float64(dev.Stats().Reads-before)/float64(b.N), "reads/op")
		})
	}
}

// FuzzRecordCompare pins Record.Compare to the order it is defined as,
// cmp.Compare on each coordinate (reference below), on NaN, ±0, ±Inf,
// subnormals, PDs of different lengths and planar-vs-d-dimensional
// pairs.
func FuzzRecordCompare(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{0, 2, 1})
	f.Add([]byte{3, 0, 4, 5}, []byte{3, 0, 4, 6})
	f.Add([]byte{2, 1}, []byte{4, 1, 1, 1})
	f.Add([]byte{0, 7, 7}, []byte{1})
	f.Add([]byte{3, 9, 10, 11}, []byte{3, 255, 1, 0, 0, 0, 0, 0, 0, 0x80, 10, 11})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		r, s := fuzzRecord(a), fuzzRecord(b)
		if got, want := r.Compare(s), refCompare(r, s); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", r, s, got, want)
		}
	})
}

// refCompare is Record.Compare as first written, with cmp.Compare on
// every coordinate.
func refCompare(r, s Record) int {
	if r.PD == nil && s.PD == nil {
		return cmp.Or(cmp.Compare(r.P2.X, s.P2.X), cmp.Compare(r.P2.Y, s.P2.Y))
	}
	for i := range min(len(r.PD), len(s.PD)) {
		if c := cmp.Compare(r.PD[i], s.PD[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(r.PD), len(s.PD))
}

// fuzzRecord decodes a record: the first byte picks a planar record (0)
// or a PD of length 0–3, and each coordinate is one byte — one of the
// special values, or a coarse multiple of 1/4 — or 255 and then eight
// bytes of raw IEEE bits.
func fuzzRecord(data []byte) Record {
	specials := []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000001), // a NaN with its sign bit set
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64,
	}
	next := func() float64 {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		switch {
		case int(c) < len(specials):
			return specials[c]
		case c == 255 && len(data) >= 8:
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return x
		}
		return float64(int8(c)) / 4
	}
	if len(data) == 0 {
		return Record{}
	}
	shape := data[0] % 5
	data = data[1:]
	if shape == 0 {
		return Record{P2: geom.Point2{X: next(), Y: next()}}
	}
	pd := make(geom.PointD, shape-1)
	for i := range pd {
		pd[i] = next()
	}
	return Record{PD: pd}
}
