package partition

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"linconstraint/internal/eio"
	"linconstraint/internal/geom"
	"linconstraint/internal/workload"
)

// slabD returns the two-constraint conjunction between two parallel
// hyperplanes (slopes N(0, 0.5²)) holding the points whose residual
// rank lies in [lo, lo+sel) of pts: a slab as the engine issues it.
func slabD(rng *rand.Rand, pts []geom.PointD, lo, sel float64) geom.Simplex {
	d := len(pts[0])
	coef := make([]float64, d)
	for i := 0; i < d-1; i++ {
		coef[i] = rng.NormFloat64() * 0.5
	}
	res := make([]float64, len(pts))
	for i, p := range pts {
		res[i] = p[d-1] - heightD(coef, p) // coef[d-1] is still 0
	}
	sort.Float64s(res)
	at := func(q float64) float64 { return res[min(int(q*float64(len(res))), len(res)-1)] }
	hi, low := slices.Clone(coef), slices.Clone(coef)
	hi[d-1], low[d-1] = at(lo+sel), at(lo)
	return geom.Simplex{
		Planes: []geom.HyperplaneD{{Coef: hi}, {Coef: low}},
		Below:  []bool{true, false},
	}
}

// heightD returns the x_d value of the hyperplane with coefficients
// coef above the projection p[0..d-2].
func heightD(coef []float64, p geom.PointD) float64 {
	d := len(coef)
	v := coef[d-1]
	for i := 0; i < d-1; i++ {
		v += coef[i] * p[i]
	}
	return v
}

// reportQueries builds the §5 tree of BenchmarkPartitionReport: d = 3,
// 25 000 points in the unit cube, shuffled, B = 128, and 64 queries, half
// 0.5 % halfspaces and half 0.5 % slabs — dyn_mixed's read mix.
func reportQueries() (*eio.Device, *Tree, []geom.Simplex) {
	rng := rand.New(rand.NewSource(37))
	pts := workload.CubeD(rng, 25_000, 3)
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	dev := eio.NewDevice(128, 0)
	tr := New(dev, pts, Options{})
	qs := make([]geom.Simplex, 64)
	for i := range qs {
		if i%2 == 0 {
			h := workload.HalfspaceWithSelectivityD(rng, pts, 0.005).H
			qs[i] = geom.Simplex{Planes: []geom.HyperplaneD{h}, Below: []bool{true}}
		} else {
			qs[i] = slabD(rng, pts, 0.1+0.8*rng.Float64(), 0.005)
		}
	}
	return dev, tr, qs
}

// BenchmarkPartitionReport times the §5 report kernel on a static tree:
// ns per scanned record (reads·B), reads per query, and allocations,
// which must be 0 on a warmed buffer.
func BenchmarkPartitionReport(b *testing.B) {
	dev, tr, qs := reportQueries()
	out := make([]int, 0, 1024)
	for _, s := range qs { // warm the buffer to its high-water mark
		out = tr.SimplexAppend(s, out[:0])
	}
	ids := 0
	before := dev.Stats().Reads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = tr.SimplexAppend(qs[i%len(qs)], out[:0])
		ids += len(out)
	}
	ns, reads := float64(b.Elapsed().Nanoseconds()), float64(dev.Stats().Reads-before)
	b.ReportMetric(ns/(reads*float64(dev.B())), "ns/rec")
	b.ReportMetric(float64(ids)/float64(b.N), "ids/op")
	b.ReportMetric(reads/float64(b.N), "reads/op")
}

// TestSimplexAppendZeroAllocs pins the kernel's allocation count: a
// warm SimplexAppend (halfspace or slab) allocates nothing.
func TestSimplexAppendZeroAllocs(t *testing.T) {
	_, tr, qs := reportQueries()
	out := make([]int, 0, 1024)
	for _, s := range qs {
		out = tr.SimplexAppend(s, out[:0])
	}
	i := 0
	if a := testing.AllocsPerRun(100, func() {
		out = tr.SimplexAppend(qs[i%len(qs)], out[:0])
		i++
	}); a != 0 {
		t.Errorf("warm SimplexAppend allocates %v per query, want 0", a)
	}
}

// TestLeafFilterInfTakesExactPath: a leaf holding a ±Inf coordinate has
// a non-finite amax, so its leaf bound decides nothing and every record
// of it goes to the exact path — the finite ones included. (The exact
// path itself is not asked about the infinite record here: the
// predicate's rational fallback takes finite input only.)
func TestLeafFilterInfTakesExactPath(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		for axis := 0; axis < 3; axis++ {
			rng := rand.New(rand.NewSource(int64(axis)))
			pts := workload.CubeD(rng, 40, 3)
			pts[17][axis] = inf
			tr := New(eio.NewDevice(64, 0), pts, Options{})
			if tr.root.leaf == nil {
				t.Fatal("want a single-leaf tree")
			}
			if a := tr.leafAmax(tr.root, len(pts))[axis]; !math.IsInf(a, 1) {
				t.Fatalf("amax[%d] = %v, want +Inf", axis, a)
			}
			calls := 0
			exactHook = func(p geom.PointD) bool {
				calls++
				return math.IsInf(p[axis], 0)
			}
			for _, s := range []geom.Simplex{
				{Planes: []geom.HyperplaneD{{Coef: []float64{0.3, -0.2, 0.5}}}, Below: []bool{true}},
				{Planes: []geom.HyperplaneD{{Coef: []float64{0, 0, 0.9}}, {Coef: []float64{0, 0, 0.1}}}, Below: []bool{true, false}},
			} {
				calls = 0
				got := tr.SimplexAppend(s, nil)
				if calls != len(pts) {
					t.Errorf("inf %v on axis %d, %d planes: %d of %d records took the exact path", inf, axis, len(s.Planes), calls, len(pts))
				}
				var want []int
				for id, p := range pts {
					if id != 17 && s.Contains(p) {
						want = append(want, id)
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("inf %v on axis %d: got %v, want %v", inf, axis, got, want)
				}
			}
			exactHook = nil
		}
	}
}

// TestLeafFilterDecidesMost: on ordinary data the filter, not the exact
// predicate, decides every record of a crossing leaf except the ones an
// operand was cut through (each hyperplane passes through the data point
// at its selectivity rank).
func TestLeafFilterDecidesMost(t *testing.T) {
	_, tr, qs := reportQueries()
	calls, planes := 0, 0
	exactHook = func(geom.PointD) bool { calls++; return false }
	defer func() { exactHook = nil }()
	for _, s := range qs {
		tr.SimplexAppend(s, nil)
		planes += len(s.Planes)
	}
	if calls > planes {
		t.Errorf("%d exact-path calls over %d queries of %d hyperplanes on uniform data", calls, len(qs), planes)
	}
}

// fuzzFloats decodes raw into finite float64s drawn from the values a
// float filter gets wrong first: ±0, subnormals, ±1e300, ±1e-300, small
// lattice integers and halves, and arbitrary finite bit patterns.
type fuzzFloats struct{ raw []byte }

func (f *fuzzFloats) byte() byte {
	if len(f.raw) == 0 {
		return 0
	}
	b := f.raw[0]
	f.raw = f.raw[1:]
	return b
}

func (f *fuzzFloats) next() float64 {
	tag := f.byte()
	neg := 1.0
	if tag&0x80 != 0 {
		neg = -1
	}
	switch tag % 8 {
	case 0:
		return math.Copysign(0, neg)
	case 1:
		return neg * 5e-324 * float64(1+f.byte())
	case 2:
		return neg * 1e300
	case 3:
		return neg * 1e-300
	case 4:
		return float64(int8(f.byte()))
	case 5:
		return float64(int8(f.byte())) / 2
	case 6:
		return neg * float64(f.byte()) / 256
	default:
		var b [8]byte
		for i := range b {
			b[i] = f.byte()
		}
		if x := math.Float64frombits(binary.LittleEndian.Uint64(b[:])); !math.IsNaN(x) && !math.IsInf(x, 0) {
			return x
		}
		return neg * 0.5
	}
}

// FuzzLeafFilter: for a 3-d leaf (the filter's one dimension) of fuzzed
// finite coordinates — ±0, subnormals, ±1e300, lattice points, points
// exactly on a constraint — and 1–3 fuzzed constraints, SimplexAppend
// reports exactly the records the exact Simplex.Contains accepts.
func FuzzLeafFilter(f *testing.F) {
	f.Add([]byte{0x05, 4, 2, 4, 3, 4, 1, 4, 1, 4, 1, 4, 1})
	f.Add([]byte{0x16, 2, 0x82, 3, 1, 0, 0x80, 4, 7, 5, 9, 4, 250, 2, 3})
	f.Add([]byte{0xff, 7, 1, 2, 3, 4, 5, 6, 7, 8, 6, 200, 6, 10, 1, 9, 0x81, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		hdr := raw[0]
		in := &fuzzFloats{raw: raw[1:]}
		const d = 3
		k := 1 + int(hdr>>2)%3
		s := geom.Simplex{}
		for c := 0; c < k; c++ {
			coef := make([]float64, d)
			for i := range coef {
				coef[i] = in.next()
			}
			s.Planes = append(s.Planes, geom.HyperplaneD{Coef: coef})
			s.Below = append(s.Below, hdr>>(4+c)&1 == 0)
		}
		var pts []geom.PointD
		for len(in.raw) > 0 && len(pts) < 96 {
			p := make(geom.PointD, d)
			for i := range p {
				p[i] = in.next()
			}
			pts = append(pts, p)
			// A lattice point on the first constraint's hyperplane (exactly
			// on it whenever the evaluation is exact).
			q := make(geom.PointD, d)
			for i := 0; i < d-1; i++ {
				q[i] = math.Round(p[i])
			}
			q[d-1] = heightD(s.Planes[len(pts)%k].Coef, q)
			if !math.IsInf(q[d-1], 0) && !math.IsNaN(q[d-1]) {
				pts = append(pts, q)
			}
		}
		if len(pts) == 0 {
			return
		}
		// One leaf of several 8-record blocks: the root, so every record
		// meets the filter (no cell classification in between).
		tr := New(eio.NewDevice(8, 0), pts, Options{LeafSize: len(pts)})
		got := tr.SimplexAppend(s, nil)
		var want []int
		for id, p := range pts {
			if s.Contains(p) {
				want = append(want, id)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d planes %v below %v over %d points:\n got %v\nwant %v",
				k, s.Planes, s.Below, len(pts), got, want)
		}
	})
}

// TestSharePointsAliasesLeaves: with SharePoints, New re-points every
// input point at its coordinates in the tree's leaf storage. The values
// and the tree's answers and reads are those of a tree built without
// it over the same points.
func TestSharePointsAliasesLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	orig := workload.CubeD(rng, 5_000, 3)
	shared := slices.Clone(orig)
	devP, devS := eio.NewDevice(64, 0), eio.NewDevice(64, 0)
	plain, tr := New(devP, orig, Options{}), New(devS, shared, Options{SharePoints: true})
	for i, p := range shared {
		if !slices.Equal(p, orig[i]) || cap(p) != len(p) {
			t.Fatalf("point %d is %v (cap %d), was %v", i, p, cap(p), orig[i])
		}
	}
	// Negating the leaf storage negates every shared point.
	negate := func() {
		for i := range tr.flat {
			tr.flat[i] = -tr.flat[i]
		}
	}
	negate()
	for i, p := range shared {
		if p[0] != -orig[i][0] || p[2] != -orig[i][2] {
			t.Fatalf("point %d is %v after negating the leaves, want the negation of %v", i, p, orig[i])
		}
	}
	negate()
	for i := 0; i < 50; i++ {
		s := slabD(rng, orig, 0.1+0.8*rng.Float64(), 0.01)
		if got, want := tr.Simplex(s), plain.Simplex(s); !slices.Equal(got, want) {
			t.Fatalf("slab %d: %d ids, want %d", i, len(got), len(want))
		}
	}
	if s, p := devS.Stats(), devP.Stats(); s != p {
		t.Fatalf("device counters %+v, want %+v", s, p)
	}
}
