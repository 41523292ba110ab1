package dynamic

import (
	"math/rand"
	"sort"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/workload"
)

// TestHalfplane2DAgainstModel drives random inserts/deletes/queries and
// compares every query against a brute-force model.
func TestHalfplane2DAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dev := eio.NewDevice(16, 0)
	idx := NewHalfplane2D(dev, 3)
	var model []geom.Point2

	for op := 0; op < 1500; op++ {
		switch r := rng.Intn(10); {
		case r < 6:
			p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
			idx.Insert(p)
			model = append(model, p)
		case r < 8:
			if len(model) == 0 {
				continue
			}
			i := rng.Intn(len(model))
			p := model[i]
			if !idx.Delete(p) {
				t.Fatalf("op %d: Delete(%v) failed", op, p)
			}
			model = append(model[:i], model[i+1:]...)
		default:
			a, b := rng.NormFloat64(), rng.Float64()
			got := idx.Report(a, b)
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

// TestQueryReadsEachBlockOnce extends the §3 query's read-once
// accounting to the logarithmic method: a query on the dynamized planar
// index runs the §3 walk in every bucket, and no bucket shares a block
// with another, so no block is read twice. The device caches more than
// the structure owns and is emptied before each query, so any hit is a
// re-read; the total read count is pinned as well.
func TestQueryReadsEachBlockOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dev := eio.NewDevice(16, 1<<20)
	idx := NewHalfplane2D(dev, 4)
	pts := workload.Uniform2(rng, 5000)
	for _, p := range pts {
		idx.Insert(p)
	}
	if b := idx.set.Buckets(); b != 5 {
		t.Fatalf("%d buckets, want 5 (5000 = 0b1001110001000)", b)
	}
	var out []geom.Point2
	var reads int64
	for _, sel := range []float64{0.0005, 0.01, 0.1, 0.5, 1} {
		for i := 0; i < 40; i++ {
			h := workload.HalfplaneWithSelectivity(rng, pts, sel)
			dev.DropCache()
			before := dev.Stats()
			out = idx.ReportAppend(h.A, h.B, out[:0])
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
	dev := eio.NewDevice(8, 0)
	idx := NewHalfplane2D(dev, 1)
	if idx.Delete(geom.Point2{X: 1, Y: 1}) {
		t.Fatal("deleted from empty set")
	}
	idx.Insert(geom.Point2{X: 1, Y: 1})
	if idx.Delete(geom.Point2{X: 2, Y: 2}) {
		t.Fatal("deleted absent point")
	}
	if !idx.Delete(geom.Point2{X: 1, Y: 1}) {
		t.Fatal("failed to delete present point")
	}
	if idx.Len() != 0 {
		t.Fatal("Len after delete")
	}
}

func TestBucketStructure(t *testing.T) {
	dev := eio.NewDevice(8, 0)
	set := NewSet(dev, func(d *eio.Device, items []int) Index[int] { return constIndex(len(items)) })
	for i := 0; i < 100; i++ {
		set.Insert(i)
	}
	// 100 = 64+32+4: three buckets.
	if got := set.Buckets(); got != 3 {
		t.Fatalf("buckets = %d, want 3", got)
	}
	if set.Len() != 100 {
		t.Fatal("Len")
	}
}

// constIndex reports every position.
type constIndex int

func (c constIndex) QueryAppend(q any, dst []int) []int {
	for i := 0; i < int(c); i++ {
		dst = append(dst, i)
	}
	return dst
}

func TestCompactAfterManyDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dev := eio.NewDevice(16, 0)
	idx := NewHalfplane2D(dev, 5)
	var pts []geom.Point2
	for i := 0; i < 256; i++ {
		p := geom.Point2{X: rng.Float64(), Y: rng.Float64()}
		pts = append(pts, p)
		idx.Insert(p)
	}
	for i := 0; i < 200; i++ {
		if !idx.Delete(pts[i]) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if idx.Len() != 56 {
		t.Fatalf("Len = %d", idx.Len())
	}
	got := idx.Report(0, 2) // everything is below y = 2
	if len(got) != 56 {
		t.Fatalf("after compaction query returned %d, want 56", len(got))
	}
}

func TestPartitionDAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dev := eio.NewDevice(16, 0)
	idx := NewPartitionD(dev)
	var model []geom.PointD
	for op := 0; op < 800; op++ {
		switch r := rng.Intn(10); {
		case r < 6:
			p := geom.PointD{rng.Float64(), rng.Float64(), rng.Float64()}
			idx.Insert(p)
			model = append(model, p)
		case r < 8:
			if len(model) == 0 {
				continue
			}
			i := rng.Intn(len(model))
			if !idx.Delete(model[i]) {
				t.Fatalf("op %d: delete failed", op)
			}
			model = append(model[:i], model[i+1:]...)
		default:
			h := geom.HyperplaneD{Coef: []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3, 0.5}}
			got := idx.Report(h)
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

// TestPartitionDSimplexAgainstModel: the dynamized tree's simplex
// dispatch (matching the static adapter's OpConjunction coverage) must
// agree with a brute-force containment model under interleaved updates.
func TestPartitionDSimplexAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dev := eio.NewDevice(16, 0)
	idx := NewPartitionD(dev)
	var model []geom.PointD
	for op := 0; op < 600; op++ {
		switch r := rng.Intn(10); {
		case r < 6:
			p := geom.PointD{rng.Float64(), rng.Float64(), rng.Float64()}
			idx.Insert(p)
			model = append(model, p)
		case r < 7:
			if len(model) == 0 {
				continue
			}
			i := rng.Intn(len(model))
			if !idx.Delete(model[i]) {
				t.Fatalf("op %d: delete failed", op)
			}
			model = append(model[:i], model[i+1:]...)
		default:
			// A slab between two parallel hyperplanes plus one more cut.
			hi := []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3, 0.4 + rng.Float64()*0.4}
			lo := []float64{hi[0], hi[1], hi[2] - 0.3}
			sx := geom.Simplex{
				Planes: []geom.HyperplaneD{{Coef: hi}, {Coef: lo}, {Coef: []float64{0.2, -0.1, 0.6}}},
				Below:  []bool{true, false, true},
			}
			got := idx.ReportSimplex(sx)
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
	idx := NewHalfplane2D(dev, 7)
	rng := rand.New(rand.NewSource(4))
	n := 1 << 10
	for i := 0; i < n; i++ {
		idx.Insert(geom.Point2{X: rng.Float64(), Y: rng.Float64()})
	}
	writesPerInsert := float64(dev.Stats().Writes) / float64(n)
	// log2(1024) = 10 rebuild generations, each writing O(1/B·const) per item.
	if writesPerInsert > 40 {
		t.Fatalf("amortized writes per insert %v too high", writesPerInsert)
	}
}
